// Unit + property tests for the streaming statistics helpers.
#include <gtest/gtest.h>

#include <array>

#include "common/stats.hpp"

namespace nextgov {
namespace {

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SpanHelpers, MeanAndMax) {
  const std::array<double, 4> v{1.0, 2.0, 3.0, 6.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 3.0);
  EXPECT_DOUBLE_EQ(mean_of({v.data(), 0}), 0.0);
  RunningStats s;
  for (double x : v) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), mean_of(v));
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
}

}  // namespace
}  // namespace nextgov
