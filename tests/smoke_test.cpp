// smoke_test.cpp - end-to-end sanity: the full stack builds, runs a short
// session under every governor kind and produces physically sane numbers.
#include <gtest/gtest.h>

#include "run_app.hpp"
#include "sim/experiment.hpp"

namespace nextgov::sim {
namespace {

TEST(Smoke, ShortSessionUnderEveryGovernor) {
  for (GovernorKind kind : {GovernorKind::kSchedutil, GovernorKind::kPerformance,
                            GovernorKind::kPowersave, GovernorKind::kOndemand,
                            GovernorKind::kIntQos, GovernorKind::kNext}) {
    ExperimentConfig config;
    config.governor = kind;
    config.duration = SimTime::from_seconds(10.0);
    config.seed = 42;
    const SessionResult r = test::run_app(workload::AppId::kFacebook, config);
    EXPECT_GT(r.avg_power_w, 0.5) << to_string(kind);
    EXPECT_LT(r.avg_power_w, 15.0) << to_string(kind);
    EXPECT_GE(r.avg_temp_big_c, 20.0) << to_string(kind);
    EXPECT_LT(r.peak_temp_big_c, 120.0) << to_string(kind);
    EXPECT_GE(r.frames_presented, 0) << to_string(kind);
  }
}

}  // namespace
}  // namespace nextgov::sim
