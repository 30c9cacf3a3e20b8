// Unit tests for the microsecond-tick simulated clock.
#include <gtest/gtest.h>

#include "common/sim_time.hpp"
#include "literals.hpp"

namespace nextgov {
namespace {

using namespace nextgov::literals;

TEST(SimTime, ConversionsRoundTrip) {
  EXPECT_EQ(SimTime::from_ms(25).us(), 25'000);
  EXPECT_EQ(SimTime::from_seconds(4.0).us(), 4'000'000);
  EXPECT_DOUBLE_EQ(SimTime{16'667}.seconds(), 0.016667);
  EXPECT_DOUBLE_EQ(SimTime::from_seconds(1.5).seconds(), 1.5);
}

TEST(SimTime, FromSecondsRoundsToNearestMicrosecond) {
  EXPECT_EQ(SimTime::from_seconds(1e-6 * 0.4).us(), 0);
  EXPECT_EQ(SimTime::from_seconds(1e-6 * 0.6).us(), 1);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = 100_ms;
  const SimTime b = 25_ms;
  EXPECT_EQ((a + b).us(), 125'000);
  EXPECT_EQ((a - b).us(), 75'000);
  EXPECT_EQ(a / b, 4);
}

TEST(SimTime, PeriodDivisionCountsWholePeriods) {
  // 4 s window at 25 ms sampling = exactly the paper's 160 samples.
  EXPECT_EQ(SimTime::from_seconds(4.0) / SimTime::from_ms(25), 160);
}

TEST(SimTime, Ordering) {
  EXPECT_LT(25_ms, 100_ms);
  EXPECT_EQ(1_s, SimTime::from_ms(1000));
  EXPECT_GE(2_s, 1_s);
}

}  // namespace
}  // namespace nextgov
