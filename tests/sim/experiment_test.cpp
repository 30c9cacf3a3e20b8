// Unit tests for the experiment harness.
#include <gtest/gtest.h>

#include "run_app.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"

namespace nextgov::sim {
namespace {

TEST(Experiment, GovernorNames) {
  EXPECT_EQ(to_string(GovernorKind::kSchedutil), "schedutil");
  EXPECT_EQ(to_string(GovernorKind::kIntQos), "intqos");
  EXPECT_EQ(to_string(GovernorKind::kNext), "next");
}

TEST(Experiment, SessionResultFieldsArePopulated) {
  ExperimentConfig cfg;
  cfg.duration = SimTime::from_seconds(20.0);
  const SessionResult r = test::run_app(workload::AppId::kFacebook, cfg);
  EXPECT_EQ(r.app, "facebook");
  EXPECT_EQ(r.governor, "schedutil");
  EXPECT_DOUBLE_EQ(r.duration_s, 20.0);
  EXPECT_GT(r.avg_power_w, 0.5);
  EXPECT_GE(r.peak_power_w, r.avg_power_w);
  EXPECT_GE(r.peak_temp_big_c, r.avg_temp_big_c);
  EXPECT_GT(r.energy_j, 0.0);
  EXPECT_FALSE(r.series.empty());
}

TEST(Experiment, SameSeedReproducesExactly) {
  ExperimentConfig cfg;
  cfg.duration = SimTime::from_seconds(15.0);
  cfg.seed = 5;
  const SessionResult a = test::run_app(workload::AppId::kSpotify, cfg);
  const SessionResult b = test::run_app(workload::AppId::kSpotify, cfg);
  EXPECT_DOUBLE_EQ(a.avg_power_w, b.avg_power_w);
  EXPECT_EQ(a.frames_presented, b.frames_presented);
}

TEST(Experiment, CustomFactorySessionsWork) {
  ExperimentConfig cfg;
  cfg.duration = SimTime::from_seconds(10.0);
  const SessionResult r = run_session(scenario("fig1_session").app_factory(), "fig1", cfg);
  EXPECT_EQ(r.app, "fig1");
}

TEST(Experiment, TrainingProducesUsableTable) {
  TrainingOptions opts;
  opts.max_duration = SimTime::from_seconds(120.0);
  opts.episode_length = SimTime::from_seconds(30.0);
  const TrainingResult tr = train_next(workload::AppId::kFacebook, core::NextConfig{}, opts);
  EXPECT_GT(tr.decisions, 1000u);
  EXPECT_GT(tr.states_visited, 10u);
  EXPECT_GT(tr.table.total_visits(), 0u);
  EXPECT_GT(tr.wall_seconds, 0.0);
  EXPECT_LE(tr.sim_seconds, 120.0 + 1.0);
}

TEST(Experiment, TrainedTableDeploysGreedily) {
  TrainingOptions opts;
  opts.max_duration = SimTime::from_seconds(120.0);
  const TrainingResult tr = train_next(workload::AppId::kFacebook, core::NextConfig{}, opts);

  ExperimentConfig cfg;
  cfg.governor = GovernorKind::kNext;
  cfg.duration = SimTime::from_seconds(20.0);
  cfg.trained_table = &tr.table;
  const SessionResult r = test::run_app(workload::AppId::kFacebook, cfg);
  EXPECT_EQ(r.governor, "next");
  EXPECT_GT(r.avg_power_w, 0.5);
}

TEST(Experiment, StopAtConvergenceEndsEarlyWhenDetectorFires) {
  TrainingOptions stop;
  stop.max_duration = SimTime::from_seconds(2000.0);
  stop.stop_at_convergence = true;
  const TrainingResult tr = train_next(workload::AppId::kYoutube, core::NextConfig{}, stop);
  if (tr.converged) {
    EXPECT_LT(tr.sim_seconds, 2000.0);
  } else {
    EXPECT_NEAR(tr.sim_seconds, 2000.0, 1.0);
  }
}

TEST(Experiment, EngineFactoryHonoursGovernorKind) {
  ExperimentConfig cfg;
  cfg.governor = GovernorKind::kIntQos;
  auto engine = make_engine(
      [](std::uint64_t seed) { return workload::make_app(workload::AppId::kLineage, seed); },
      cfg);
  ASSERT_NE(engine->meta(), nullptr);
  EXPECT_EQ(engine->meta()->name(), "intqos");
  cfg.governor = GovernorKind::kSchedutil;
  auto stock = make_engine(
      [](std::uint64_t seed) { return workload::make_app(workload::AppId::kLineage, seed); },
      cfg);
  EXPECT_EQ(stock->meta(), nullptr);
}

}  // namespace
}  // namespace nextgov::sim
