// Unit tests for the frame window (Section IV-A of the paper).
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "common/error.hpp"
#include "common/mode.hpp"
#include "common/rng.hpp"
#include "core/frame_window.hpp"

namespace nextgov::core {
namespace {

using namespace nextgov::literals;

TEST(FrameWindow, PaperDefaultsHold160Samples) {
  // "For 4 seconds of frame window we are able to capture 160 distinct
  // values of frame rate" at 25 ms sampling.
  const FrameWindow w;
  EXPECT_EQ(w.capacity(), 160u);
  EXPECT_EQ(w.sample_period(), 25_ms);
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
  EXPECT_EQ(w.capacity(), 320u);
  const FrameWindow w1{25_ms, SimTime::from_seconds(1.0)};
  EXPECT_EQ(w1.capacity(), 40u);
}

TEST(FrameWindow, ClearEmptiesTheWindow) {
  FrameWindow w;
  w.add_sample(Fps{60.0});
  EXPECT_EQ(w.sample_count(), 1u);
  w.clear();
  EXPECT_EQ(w.sample_count(), 0u);
  EXPECT_EQ(w.target_fps(), 0);
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
  // common/mode is the from-scratch definition of the paper's target FPS;
  // the window maintains the same mode incrementally. After every sample
  // the two must agree over the window's contents, on streams built to hit
  // the edge cases: ties (a small palette of repeated rates), zeros,
  // fractions on both sides of .5, negative readings and rates above
  // kMaxFps - across window lengths that evict often.
  constexpr double kPalette[] = {0.0, 0.0, 24.0, 30.0, 30.4, 45.5, 59.5, 60.0,
                                 60.0, 90.0, 119.6, -0.4, -7.0, 240.4, 241.0, 300.0};
  for (const double window_s : {0.1, 0.5, 4.0}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message() << "window " << window_s << " s, seed " << seed);
      Rng rng{seed};
      FrameWindow w{25_ms, SimTime::from_seconds(window_s)};
      std::deque<double> contents;
      for (int i = 0; i < 2000; ++i) {
        const double fps =
            rng.bernoulli(0.7)
                ? kPalette[static_cast<std::size_t>(rng.uniform_int(0, std::size(kPalette) - 1))]
                : rng.uniform(-20.0, 320.0);
        w.add_sample(Fps{fps});
        contents.push_back(fps);
        if (contents.size() > w.capacity()) contents.pop_front();
        const std::vector<double> window{contents.begin(), contents.end()};
        ASSERT_EQ(w.target_fps(), mode_of_rounded(window, FrameWindow::kMaxFps))
            << "after sample " << i << " (" << fps << " fps)";
      }
    }
  }
}

}  // namespace
}  // namespace nextgov::core
