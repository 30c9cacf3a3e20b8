// Unit tests for the frame window (Section IV-A of the paper).
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/frame_window.hpp"
#include "literals.hpp"
#include "oracles/mode.hpp"

namespace nextgov::core {
namespace {

using namespace nextgov::literals;

/// How many samples `w` holds: the number it takes to fill an empty copy.
std::size_t capacity_of(FrameWindow w) {
  w.clear();
  std::size_t n = 0;
  for (; !w.full(); ++n) w.add_sample(Fps{60.0});
  return n;
}

TEST(FrameWindow, PaperDefaultsHold160Samples) {
  // "For 4 seconds of frame window we are able to capture 160 distinct
  // values of frame rate" at 25 ms sampling.
  const FrameWindow w;
  EXPECT_EQ(capacity_of(w), 160u);
}

TEST(FrameWindow, EmptyWindowTargetsZero) {
  const FrameWindow w;
  EXPECT_EQ(w.target_fps(), 0);
}

TEST(FrameWindow, TargetIsModeOfSamples) {
  FrameWindow w;
  for (int i = 0; i < 100; ++i) w.add_sample(Fps{60.0});
  for (int i = 0; i < 60; ++i) w.add_sample(Fps{30.0});
  EXPECT_EQ(w.target_fps(), 60);
}

TEST(FrameWindow, OldSamplesAgeOut) {
  FrameWindow w;
  for (int i = 0; i < 160; ++i) w.add_sample(Fps{60.0});
  EXPECT_EQ(w.target_fps(), 60);
  // A full window of idle samples displaces the burst completely.
  for (int i = 0; i < 160; ++i) w.add_sample(Fps{0.0});
  EXPECT_EQ(w.target_fps(), 0);
}

TEST(FrameWindow, TransientDipDoesNotFlipTarget) {
  // 1 s of degraded FPS inside a 4 s window must not move the mode - the
  // agent's QoS target is robust against its own exploration dips.
  FrameWindow w;
  for (int i = 0; i < 120; ++i) w.add_sample(Fps{60.0});
  for (int i = 0; i < 40; ++i) w.add_sample(Fps{20.0});
  EXPECT_EQ(w.target_fps(), 60);
}

TEST(FrameWindow, FractionalSamplesAreRounded) {
  FrameWindow w;
  for (int i = 0; i < 10; ++i) w.add_sample(Fps{29.6});
  EXPECT_EQ(w.target_fps(), 30);
}

TEST(FrameWindow, NegativeReadingsClampToZero) {
  FrameWindow w;
  w.add_sample(Fps{-3.0});
  EXPECT_EQ(w.target_fps(), 0);
}

TEST(FrameWindow, ConfigurableLengthChangesCapacity) {
  const FrameWindow w{25_ms, SimTime::from_seconds(8.0)};
  EXPECT_EQ(capacity_of(w), 320u);
  const FrameWindow w1{25_ms, SimTime::from_seconds(1.0)};
  EXPECT_EQ(capacity_of(w1), 40u);
}

TEST(FrameWindow, ClearEmptiesTheWindow) {
  FrameWindow w;
  for (int i = 0; i < 10; ++i) w.add_sample(Fps{60.0});
  w.clear();
  EXPECT_EQ(w.target_fps(), 0);
  // An empty window takes all 160 samples to fill again.
  for (int i = 0; i < 159; ++i) w.add_sample(Fps{30.0});
  EXPECT_FALSE(w.full());
  w.add_sample(Fps{30.0});
  EXPECT_TRUE(w.full());
}

TEST(FrameWindow, OldestSampleLeavesFirst) {
  // A three-sample window: each new sample evicts the oldest one, so the
  // mode follows the last three samples in arrival order.
  FrameWindow w{25_ms, SimTime::from_ms(75)};
  for (const double fps : {60.0, 60.0, 30.0}) w.add_sample(Fps{fps});
  EXPECT_EQ(w.target_fps(), 60);
  w.add_sample(Fps{30.0});  // evicts the first 60
  EXPECT_EQ(w.target_fps(), 30);
  w.add_sample(Fps{45.0});  // evicts the second 60: {30, 30, 45}
  EXPECT_EQ(w.target_fps(), 30);
  w.add_sample(Fps{45.0});  // evicts a 30: {30, 45, 45}
  EXPECT_EQ(w.target_fps(), 45);
}

TEST(FrameWindow, Validation) {
  EXPECT_THROW(FrameWindow(SimTime::zero(), 4_s), ConfigError);
  EXPECT_THROW(FrameWindow(25_ms, 1_ms), ConfigError);
}

TEST(FrameWindow, FullFlagTracksCapacity) {
  FrameWindow w{25_ms, SimTime::from_ms(100)};
  EXPECT_FALSE(w.full());
  for (int i = 0; i < 4; ++i) w.add_sample(Fps{10.0});
  EXPECT_TRUE(w.full());
}

TEST(FrameWindow, TargetMatchesModeOracleOnRandomStreams) {
  // oracles/mode.hpp is the from-scratch definition of the paper's target FPS;
  // the window maintains the same mode incrementally. After every sample
  // the two must agree over the window's contents, on streams built to hit
  // the edge cases: ties (a small palette of repeated rates), zeros,
  // fractions on both sides of .5, negative readings and rates above
  // kMaxFps - across window lengths that evict often, down to a
  // one-sample window.
  constexpr double kPalette[] = {0.0, 0.0, 24.0, 30.0, 30.4, 45.5, 59.5, 60.0,
                                 60.0, 90.0, 119.6, -0.4, -7.0, 240.4, 241.0, 300.0};
  for (const std::int64_t window_ms : {25, 50, 75, 100, 175, 500, 4000}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message() << "window " << window_ms << " ms, seed " << seed);
      Rng rng{seed};
      FrameWindow w{25_ms, SimTime::from_ms(window_ms)};
      const std::size_t capacity = capacity_of(w);
      std::deque<double> contents;
      for (int i = 0; i < 2000; ++i) {
        const double fps =
            rng.bernoulli(0.7)
                ? kPalette[static_cast<std::size_t>(rng.uniform_int(0, std::size(kPalette) - 1))]
                : rng.uniform(-20.0, 320.0);
        w.add_sample(Fps{fps});
        contents.push_back(fps);
        if (contents.size() > capacity) contents.pop_front();
        const std::vector<double> window{contents.begin(), contents.end()};
        ASSERT_EQ(w.target_fps(), test::mode_of_rounded(window, FrameWindow::kMaxFps))
            << "after sample " << i << " (" << fps << " fps)";
      }
    }
  }
}

}  // namespace
}  // namespace nextgov::core
