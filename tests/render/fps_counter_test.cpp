// Unit tests for the sliding-window FPS counter.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "render/fps_counter.hpp"
#include "literals.hpp"

namespace nextgov::render {
namespace {

using namespace nextgov::literals;

TEST(FpsCounter, EmptyReadsZero) {
  SlidingFpsCounter c;
  EXPECT_DOUBLE_EQ(c.fps(1_s).value(), 0.0);
}

TEST(FpsCounter, CountsPresentsInsideWindow) {
  SlidingFpsCounter c;
  for (int i = 0; i < 30; ++i) c.on_present(SimTime::from_ms(i * 33));
  EXPECT_DOUBLE_EQ(c.fps(SimTime::from_ms(990)).value(), 30.0);
}

TEST(FpsCounter, EvictsOldPresents) {
  SlidingFpsCounter c;
  c.on_present(SimTime::from_ms(10));
  c.on_present(SimTime::from_ms(500));
  c.on_present(SimTime::from_ms(1500));
  // At t=1600 the window is (600, 1600]: only the t=1500 present remains.
  EXPECT_DOUBLE_EQ(c.fps(SimTime::from_ms(1600)).value(), 1.0);
}

TEST(FpsCounter, SteadySixtyHzReadsSixty) {
  SlidingFpsCounter c;
  // Present every 16.667 ms for 2 seconds.
  for (int i = 1; i <= 120; ++i) c.on_present(SimTime{i * 16'667});
  EXPECT_NEAR(c.fps(2_s).value(), 60.0, 1.0);
}

TEST(FpsCounter, ShorterWindowScalesToPerSecond) {
  SlidingFpsCounter c{SimTime::from_ms(500)};
  for (int i = 0; i < 15; ++i) c.on_present(SimTime::from_ms(i * 33));
  // 15 presents in 0.5 s -> 30 FPS.
  EXPECT_DOUBLE_EQ(c.fps(SimTime::from_ms(495)).value(), 30.0);
}

TEST(FpsCounter, ClearDropsHistory) {
  SlidingFpsCounter c;
  c.on_present(SimTime::from_ms(100));
  c.clear();
  EXPECT_DOUBLE_EQ(c.fps(SimTime::from_ms(200)).value(), 0.0);
}

TEST(FpsCounter, RejectsNonPositiveWindow) {
  EXPECT_THROW(SlidingFpsCounter{SimTime::zero()}, ConfigError);
}

TEST(FpsCounter, BoundaryPresentAtExactCutoffIsEvicted) {
  SlidingFpsCounter c;
  c.on_present(1_s);
  // Window at t=2s is (1s, 2s]: the t=1s present is exactly at the cutoff.
  EXPECT_DOUBLE_EQ(c.fps(2_s).value(), 0.0);
}

}  // namespace
}  // namespace nextgov::render
