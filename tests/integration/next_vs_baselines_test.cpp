// Integration tests: the paper's headline comparisons hold qualitatively.
// These are the repository's acceptance tests - if they pass, the benches
// will reproduce the paper's ordering.
#include <gtest/gtest.h>

#include "run_app.hpp"
#include "sim/experiment.hpp"

namespace nextgov::sim {
namespace {

SessionResult eval_next(workload::AppId app, SimTime duration, std::uint64_t seed) {
  TrainingOptions opts;
  opts.max_duration = SimTime::from_seconds(1200.0);
  opts.seed = seed + 1000;
  const TrainingResult tr = train_next(app, core::NextConfig{}, opts);
  ExperimentConfig cfg;
  cfg.governor = GovernorKind::kNext;
  cfg.duration = duration;
  cfg.seed = seed;
  cfg.trained_table = &tr.table;
  return test::run_app(app, cfg);
}

SessionResult eval_governor(workload::AppId app, GovernorKind kind, SimTime duration,
                            std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.governor = kind;
  cfg.duration = duration;
  cfg.seed = seed;
  return test::run_app(app, cfg);
}

TEST(NextVsBaselines, NextSavesPowerOnAGameWithoutWreckingQoS) {
  const auto duration = SimTime::from_seconds(300.0);
  const SessionResult sched = eval_governor(workload::AppId::kLineage,
                                            GovernorKind::kSchedutil, duration, 1);
  const SessionResult next = eval_next(workload::AppId::kLineage, duration, 1);
  // Paper Fig. 7: ~50% saving on Lineage; we accept anything >= 20%.
  EXPECT_LT(next.avg_power_w, sched.avg_power_w * 0.8);
  // QoS: average FPS within 15% of stock.
  EXPECT_GT(next.avg_fps, sched.avg_fps * 0.85);
}

TEST(NextVsBaselines, NextSavesPowerOnIdleHeavySpotify) {
  const auto duration = SimTime::from_seconds(150.0);
  const SessionResult sched = eval_governor(workload::AppId::kSpotify,
                                            GovernorKind::kSchedutil, duration, 1);
  const SessionResult next = eval_next(workload::AppId::kSpotify, duration, 1);
  EXPECT_LT(next.avg_power_w, sched.avg_power_w * 0.9);
  EXPECT_GT(next.avg_fps, sched.avg_fps * 0.9);
}

TEST(NextVsBaselines, NextReducesPeakBigTemperatureOnGames) {
  const auto duration = SimTime::from_seconds(300.0);
  const SessionResult sched = eval_governor(workload::AppId::kPubg, GovernorKind::kSchedutil,
                                            duration, 1);
  const SessionResult next = eval_next(workload::AppId::kPubg, duration, 1);
  // Paper Fig. 8: up to 29% reduction for big CPUs; require a clear drop.
  EXPECT_LT(next.peak_temp_big_c, sched.peak_temp_big_c - 5.0);
  EXPECT_LT(next.peak_temp_device_c, sched.peak_temp_device_c + 0.5);
}

TEST(NextVsBaselines, IntQosSavesLessThanNextOnGames) {
  // Paper Section V: Next beats Int. QoS PM by 41%/22% on the games.
  const auto duration = SimTime::from_seconds(300.0);
  const SessionResult sched = eval_governor(workload::AppId::kLineage,
                                            GovernorKind::kSchedutil, duration, 1);
  const SessionResult intqos = eval_governor(workload::AppId::kLineage, GovernorKind::kIntQos,
                                             duration, 1);
  const SessionResult next = eval_next(workload::AppId::kLineage, duration, 1);
  EXPECT_LT(intqos.avg_power_w, sched.avg_power_w);  // IntQos does save power
  EXPECT_LT(next.avg_power_w, intqos.avg_power_w);   // but Next saves more
}

TEST(NextVsBaselines, PerformanceAndPowersaveBracketEveryone) {
  const auto duration = SimTime::from_seconds(120.0);
  const SessionResult perf = eval_governor(workload::AppId::kFacebook,
                                           GovernorKind::kPerformance, duration, 2);
  const SessionResult save = eval_governor(workload::AppId::kFacebook,
                                           GovernorKind::kPowersave, duration, 2);
  const SessionResult sched = eval_governor(workload::AppId::kFacebook,
                                            GovernorKind::kSchedutil, duration, 2);
  EXPECT_GT(perf.avg_power_w, sched.avg_power_w);
  EXPECT_LT(save.avg_power_w, sched.avg_power_w);
  EXPECT_GE(perf.peak_temp_big_c, save.peak_temp_big_c);
}

TEST(NextVsBaselines, NextImprovesAveragePpdw) {
  // Eq. 4: the agent maximizes PPDW; its governed sessions must score
  // higher than stock on the metric the paper optimizes.
  const auto duration = SimTime::from_seconds(300.0);
  const SessionResult sched = eval_governor(workload::AppId::kLineage,
                                            GovernorKind::kSchedutil, duration, 1);
  const SessionResult next = eval_next(workload::AppId::kLineage, duration, 1);
  EXPECT_GT(next.avg_ppdw, sched.avg_ppdw);
}

}  // namespace
}  // namespace nextgov::sim
