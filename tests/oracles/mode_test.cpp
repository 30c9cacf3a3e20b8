// Unit tests for the mode oracle of the frame window's target FPS
// (Section IV-A: target FPS = mode of 160 frame-rate samples).
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/error.hpp"
#include "oracles/mode.hpp"

namespace nextgov::test {
namespace {

TEST(Mode, EmptySampleIsZero) {
  EXPECT_EQ(mode_of(std::vector<int>{}), 0);
}

TEST(Mode, SingleValue) {
  const std::array<int, 1> v{42};
  EXPECT_EQ(mode_of(v), 42);
}

TEST(Mode, PicksMostFrequent) {
  const std::array<int, 7> v{60, 60, 60, 30, 30, 0, 15};
  EXPECT_EQ(mode_of(v), 60);
}

TEST(Mode, TieBreaksTowardLargerValue) {
  // QoS must not be under-provisioned on ties (see oracles/mode.hpp).
  const std::array<int, 4> v{30, 30, 60, 60};
  EXPECT_EQ(mode_of(v), 60);
}

TEST(Mode, ZeroDominatedWindowYieldsZero) {
  // A mostly idle screen (Spotify playback) should demand FPS 0.
  std::vector<int> v(150, 0);
  for (int i = 0; i < 10; ++i) v.push_back(60);
  EXPECT_EQ(mode_of(v), 0);
}

TEST(Mode, NegativeValuesClampToZero) {
  const std::array<int, 3> v{-5, -5, 2};
  EXPECT_EQ(mode_of(v), 0);  // the two clamped -5s count as 0
}

TEST(Mode, ValuesAboveMaxClampToMax) {
  const std::array<int, 3> v{500, 500, 3};
  EXPECT_EQ(mode_of(v, 240), 240);
}

TEST(Mode, RejectsNegativeMaxValue) {
  const std::array<int, 1> v{1};
  EXPECT_THROW((void)mode_of(v, -1), ConfigError);
}

TEST(Mode, RoundedVariantRoundsHalfUp) {
  const std::array<double, 4> v{59.6, 59.6, 59.4, 2.0};
  EXPECT_EQ(mode_of_rounded(v), 60);
}

TEST(Mode, RoundedVariantOnUniformSample) {
  std::vector<double> v(160, 29.7);
  EXPECT_EQ(mode_of_rounded(v), 30);
}

}  // namespace
}  // namespace nextgov::test
