// Integration tests for the training pipeline: convergence behaviour,
// quantization effects (Fig. 6's mechanism) and federated merging.
#include <gtest/gtest.h>

#include <array>

#include "rl/federated.hpp"
#include "run_app.hpp"
#include "sim/experiment.hpp"

namespace nextgov::sim {
namespace {

TEST(Training, VisitsGrowWithFpsQuantizationLevels) {
  // Fig. 6's mechanism: more FPS levels -> more distinct states -> more to
  // learn. The visited-state count must grow with the quantization.
  TrainingOptions opts;
  opts.max_duration = SimTime::from_seconds(400.0);
  core::NextConfig coarse;
  coarse.fps_levels = 5;
  core::NextConfig fine;
  fine.fps_levels = 60;
  const TrainingResult tr_coarse = train_next(workload::AppId::kFacebook, coarse, opts);
  const TrainingResult tr_fine = train_next(workload::AppId::kFacebook, fine, opts);
  EXPECT_GT(tr_fine.states_visited, tr_coarse.states_visited);
}

TEST(Training, RewardImprovesOverTraining) {
  // Early-training mean reward vs late: the agent must be learning.
  TrainingOptions short_opts;
  short_opts.max_duration = SimTime::from_seconds(60.0);
  TrainingOptions long_opts;
  long_opts.max_duration = SimTime::from_seconds(900.0);
  const TrainingResult early = train_next(workload::AppId::kLineage, core::NextConfig{},
                                          short_opts);
  const TrainingResult late = train_next(workload::AppId::kLineage, core::NextConfig{},
                                         long_opts);
  EXPECT_GT(late.final_mean_reward, early.final_mean_reward * 0.9);
  EXPECT_GT(late.decisions, early.decisions);
}

TEST(Training, FederatedMergeOfTwoDevicesCoversMoreStates) {
  // Section IV-C: merging per-device tables yields broader coverage than
  // either device alone.
  TrainingOptions a_opts;
  a_opts.max_duration = SimTime::from_seconds(300.0);
  a_opts.seed = 11;
  TrainingOptions b_opts = a_opts;
  b_opts.seed = 22;
  const TrainingResult a = train_next(workload::AppId::kFacebook, core::NextConfig{}, a_opts);
  const TrainingResult b = train_next(workload::AppId::kFacebook, core::NextConfig{}, b_opts);
  const std::array<const rl::QTable*, 2> tables{&a.table, &b.table};
  const std::array<double, 2> fresh{0.0, 0.0};
  const rl::QTable merged = rl::merge_q_tables(tables, fresh);
  EXPECT_GE(merged.state_count(), a.table.state_count());
  EXPECT_GE(merged.state_count(), b.table.state_count());
  EXPECT_EQ(merged.total_visits(), a.table.total_visits() + b.table.total_visits());

  // And the merged table is deployable.
  ExperimentConfig cfg;
  cfg.governor = GovernorKind::kNext;
  cfg.duration = SimTime::from_seconds(30.0);
  cfg.trained_table = &merged;
  const SessionResult r = test::run_app(workload::AppId::kFacebook, cfg);
  EXPECT_GT(r.avg_power_w, 0.5);
}

TEST(Training, AgentPowerOverheadIsSmall) {
  // Section IV-B: agent power (it runs on LITTLE) must stay far below the
  // app's own consumption - the paper reports < 6%. Compare identical
  // schedutil sessions with and without the agent-overhead utilization.
  ExperimentConfig base;
  base.duration = SimTime::from_seconds(60.0);
  const SessionResult stock = test::run_app(workload::AppId::kFacebook, base);

  ExperimentConfig with_agent = base;
  with_agent.governor = GovernorKind::kNext;  // untrained, exploring caps at max
  with_agent.next_mode = core::AgentMode::kDeployed;
  const SessionResult agent = test::run_app(workload::AppId::kFacebook, with_agent);
  EXPECT_LT(agent.avg_power_w, stock.avg_power_w * 1.06);
}

}  // namespace
}  // namespace nextgov::sim
