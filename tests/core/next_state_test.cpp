// Unit tests for the Next agent's state/action encodings.
#include <gtest/gtest.h>

#include "core/next_state.hpp"
#include "soc/soc.hpp"

namespace nextgov::core {
namespace {

governors::Observation make_obs(std::size_t big_idx, std::size_t little_idx,
                                std::size_t gpu_idx, double fps, double power, double t_big,
                                double t_dev) {
  governors::Observation obs;
  obs.clusters.resize(3);
  obs.clusters[0].freq_index = big_idx;
  obs.clusters[0].opp_count = 18;
  obs.clusters[1].freq_index = little_idx;
  obs.clusters[1].opp_count = 10;
  obs.clusters[2].freq_index = gpu_idx;
  obs.clusters[2].opp_count = 6;
  obs.fps = Fps{fps};
  obs.sensors.power = Watts{power};
  obs.sensors.big = Celsius{t_big};
  obs.sensors.device = Celsius{t_dev};
  return obs;
}

TEST(Actions, PaperNineActionLayout) {
  // 3 PE clusters x {up, down, nothing} = 9 actions (Section IV-B).
  EXPECT_EQ(action_index(0, ActionKind::kFreqUp), 0u);
  EXPECT_EQ(action_index(0, ActionKind::kFreqDown), 1u);
  EXPECT_EQ(action_index(0, ActionKind::kDoNothing), 2u);
  EXPECT_EQ(action_index(2, ActionKind::kDoNothing), 8u);
  for (std::size_t i = 0; i < 9; ++i) {
    const NextAction a = action_from_index(i);
    EXPECT_EQ(action_index(a.cluster, a.kind), i);
  }
}

TEST(Encoder, ActionCountIsThreePerCluster) {
  const NextStateEncoder enc{NextConfig{}, {18, 10, 6}};
  EXPECT_EQ(enc.action_count(), 9u);
  const NextStateEncoder enc2{NextConfig{}, {18, 10, 6, 12}};
  EXPECT_EQ(enc2.action_count(), 12u);  // generalizes to m clusters
}

TEST(Encoder, StateSpaceMatchesConfiguredCardinalities) {
  NextConfig cfg;
  cfg.fps_levels = 30;
  cfg.power_bins = 8;
  cfg.temp_bins = 8;
  const NextStateEncoder enc{cfg, {18, 10, 6}};
  // Every field at its lowest level packs to key 0, every field at its
  // highest to the last key of the 18*10*6 freqs x 30 fps x 30 target x
  // 8 power x 8x8 temps space.
  EXPECT_EQ(enc.encode(make_obs(0, 0, 0, 0.0, 0.0, 0.0, 0.0), 0), 0u);
  EXPECT_EQ(enc.encode(make_obs(17, 9, 5, 500.0, 99.0, 200.0, 200.0), 500),
            18ull * 10 * 6 * 30 * 30 * 8 * 8 * 8 - 1);
}

TEST(Encoder, DistinctObservationsGetDistinctKeys) {
  const NextStateEncoder enc{NextConfig{}, {18, 10, 6}};
  const auto base = enc.encode(make_obs(3, 2, 1, 30, 3.0, 45, 30), 30);
  EXPECT_NE(enc.encode(make_obs(4, 2, 1, 30, 3.0, 45, 30), 30), base);
  EXPECT_NE(enc.encode(make_obs(3, 3, 1, 30, 3.0, 45, 30), 30), base);
  EXPECT_NE(enc.encode(make_obs(3, 2, 2, 30, 3.0, 45, 30), 30), base);
  EXPECT_NE(enc.encode(make_obs(3, 2, 1, 58, 3.0, 45, 30), 30), base);
  EXPECT_NE(enc.encode(make_obs(3, 2, 1, 30, 3.0, 45, 30), 58), base);
  EXPECT_NE(enc.encode(make_obs(3, 2, 1, 30, 9.0, 45, 30), 30), base);
  EXPECT_NE(enc.encode(make_obs(3, 2, 1, 30, 3.0, 85, 30), 30), base);
  EXPECT_NE(enc.encode(make_obs(3, 2, 1, 30, 3.0, 45, 60), 30), base);
}

TEST(Encoder, QuantizationCollapsesNearbyValues) {
  const NextStateEncoder enc{NextConfig{}, {18, 10, 6}};
  // 30 FPS levels over [0,60] -> 2 FPS per bin: 30.2 and 31.2 share a bin.
  EXPECT_EQ(enc.encode(make_obs(3, 2, 1, 30.2, 3.0, 45, 30), 30),
            enc.encode(make_obs(3, 2, 1, 31.2, 3.05, 45.05, 30.05), 30));
}

TEST(Encoder, FpsLevelKnobChangesResolution) {
  NextConfig coarse;
  coarse.fps_levels = 5;
  const NextStateEncoder enc{coarse, {18, 10, 6}};
  // 12 FPS per bin: 30 and 35 collapse into [24,36); 30 and 50 do not.
  EXPECT_EQ(enc.fps_level(30.0), enc.fps_level(35.0));
  EXPECT_NE(enc.fps_level(30.0), enc.fps_level(50.0));
}

TEST(Encoder, OutOfRangeSensorValuesClampSafely) {
  const NextStateEncoder enc{NextConfig{}, {18, 10, 6}};
  const auto k1 = enc.encode(make_obs(0, 0, 0, 500.0, 99.0, 200.0, -40.0), 500);
  const auto k2 = enc.encode(make_obs(0, 0, 0, 60.0, 12.0, 95.0, 20.0), 60);
  EXPECT_EQ(k1, k2);
}

TEST(Encoder, RejectsInvalidConstruction) {
  EXPECT_THROW(NextStateEncoder(NextConfig{}, {}), ConfigError);
  EXPECT_THROW(NextStateEncoder(NextConfig{}, {18, 0, 6}), ConfigError);
}

}  // namespace
}  // namespace nextgov::core
