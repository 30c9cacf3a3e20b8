// Unit + property tests for the VSync / triple-buffering render pipeline.
#include <gtest/gtest.h>

#include <cmath>

#include "render/pipeline.hpp"
#include "literals.hpp"

namespace nextgov::render {
namespace {

using namespace nextgov::literals;

/// Frame source producing constant-cost frames on demand.
class ConstantSource final : public FrameSource {
 public:
  ConstantSource(double cpu_cycles, double gpu_cycles, bool continuous = true)
      : cpu_{cpu_cycles}, gpu_{gpu_cycles}, continuous_{continuous} {}

  bool wants_frame(SimTime) override { return continuous_ && enabled_; }
  FrameJob begin_frame(SimTime) override {
    ++frames_started_;
    return FrameJob{cpu_, gpu_};
  }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] int frames_started() const { return frames_started_; }

 private:
  double cpu_;
  double gpu_;
  bool continuous_;
  bool enabled_{true};
  int frames_started_{0};
};

/// Fixed-rate cadence source (video model).
class CadenceSource final : public FrameSource {
 public:
  CadenceSource(double fps, double cpu_cycles, double gpu_cycles)
      : period_us_{1e6 / fps}, cpu_{cpu_cycles}, gpu_{gpu_cycles} {}

  bool wants_frame(SimTime now) override {
    return static_cast<double>(now.us()) >= next_due_us_;
  }
  FrameJob begin_frame(SimTime) override {
    next_due_us_ += period_us_;
    return FrameJob{cpu_, gpu_};
  }

 private:
  double period_us_;
  double next_due_us_{0.0};
  double cpu_;
  double gpu_;
};

/// Steps `p` in `step` increments over [start, start + duration) and returns
/// the summed per-step accounting.
PipelineStepResult run_for(RenderPipeline& p, FrameSource& src, SimTime duration, double f_cpu,
                           double f_gpu, SimTime step = 1_ms, SimTime start = SimTime::zero()) {
  PipelineStepResult acc;
  for (SimTime t = start; t < start + duration; t += step) {
    const auto r = p.step(t, step, f_cpu, f_gpu, src);
    acc.cpu_busy_seconds += r.cpu_busy_seconds;
    acc.gpu_busy_seconds += r.gpu_busy_seconds;
    acc.frames_presented += r.frames_presented;
    acc.frames_dropped += r.frames_dropped;
  }
  return acc;
}

TEST(Pipeline, FastFramesAreVsyncCappedAtSixty) {
  RenderPipeline p;
  ConstantSource src{1e6, 1e6};  // trivially cheap at 2 GHz / 500 MHz
  const PipelineStepResult acc = run_for(p, src, 2_s, 2e9, 5e8);
  EXPECT_NEAR(static_cast<double>(acc.frames_presented), 120.0, 3.0);
  EXPECT_EQ(acc.frames_dropped, 0);
}

TEST(Pipeline, ThroughputLimitedByGpuStage) {
  // GPU stage 25 ms per frame at 4e8 Hz -> ~40 FPS sustained.
  RenderPipeline p;
  ConstantSource src{1e6, 1e7};
  const PipelineStepResult acc = run_for(p, src, 3_s, 2e9, 4e8);
  const double fps = static_cast<double>(acc.frames_presented) / 3.0;
  EXPECT_NEAR(fps, 40.0, 2.5);
  EXPECT_GT(acc.frames_dropped, 0);  // misses VSync deadlines regularly
}

TEST(Pipeline, ThroughputLimitedByCpuStage) {
  // CPU stage 33 ms per frame at 6e8 Hz -> ~30 FPS.
  RenderPipeline p;
  ConstantSource src{2e7, 1e6};
  const PipelineStepResult acc = run_for(p, src, 3_s, 6e8, 5e8);
  const double fps = static_cast<double>(acc.frames_presented) / 3.0;
  EXPECT_NEAR(fps, 30.0, 2.5);
}

TEST(Pipeline, StagesOverlapAcrossFrames) {
  // Serial stage times are 12 + 12 = 24 ms (41 FPS serial), but with
  // pipelining the sustainable rate is min(60, 1/max(t_cpu, t_gpu)) ~ 60
  // with 12 ms stages... use 20 ms stages: serial would be 25 FPS,
  // pipelined ~50 FPS. Verify we beat serial clearly.
  RenderPipeline p;
  ConstantSource src{2e7, 2e7};
  const PipelineStepResult acc = run_for(p, src, 3_s, 1e9, 1e9);  // each stage 20 ms
  const double fps = static_cast<double>(acc.frames_presented) / 3.0;
  EXPECT_GT(fps, 40.0);
  EXPECT_LT(fps, 55.0);
}

TEST(Pipeline, IdleSourceProducesNothing) {
  RenderPipeline p;
  ConstantSource src{1e6, 1e6, /*continuous=*/false};
  const PipelineStepResult acc = run_for(p, src, 1_s, 2e9, 5e8);
  EXPECT_EQ(acc.frames_presented, 0);
  EXPECT_EQ(acc.frames_dropped, 0);
  EXPECT_DOUBLE_EQ(acc.cpu_busy_seconds, 0.0);
  EXPECT_DOUBLE_EQ(acc.gpu_busy_seconds, 0.0);
  EXPECT_EQ(src.frames_started(), 0);
}

TEST(Pipeline, CadenceSourcePresentsAtItsRate) {
  RenderPipeline p;
  CadenceSource src{30.0, 2e6, 2e6};
  const PipelineStepResult acc = run_for(p, src, 3_s, 2e9, 5e8);
  EXPECT_NEAR(static_cast<double>(acc.frames_presented) / 3.0, 30.0, 1.5);
  // A 30 FPS video on a 60 Hz display misses no deadlines.
  EXPECT_EQ(acc.frames_dropped, 0);
}

TEST(Pipeline, BusyTimeMatchesFrameCost) {
  RenderPipeline p;
  CadenceSource src{30.0, 4e6, 6e6};
  const PipelineStepResult acc = run_for(p, src, 2_s, 2e9, 5e8);
  // ~60 frames; each frame: cpu 2 ms, gpu 12 ms.
  EXPECT_NEAR(acc.cpu_busy_seconds, 60 * 2e-3, 0.02);
  EXPECT_NEAR(acc.gpu_busy_seconds, 60 * 12e-3, 0.08);
}

TEST(Pipeline, CurrentFpsTracksPresentationRate) {
  RenderPipeline p;
  ConstantSource src{1e6, 1e6};
  run_for(p, src, 2_s, 2e9, 5e8);
  EXPECT_NEAR(p.current_fps(2_s).value(), 60.0, 2.0);
}

TEST(Pipeline, DropRateZeroWhenKeepingUp) {
  RenderPipeline p;
  ConstantSource src{1e6, 1e6};
  run_for(p, src, 2_s, 2e9, 5e8);
  EXPECT_DOUBLE_EQ(p.current_drop_rate(2_s), 0.0);
}

TEST(Pipeline, ResetClearsInFlightState) {
  RenderPipeline p;
  ConstantSource src{5e7, 5e7};
  run_for(p, src, 500_ms, 1e9, 1e9);
  p.reset(500_ms);
  EXPECT_DOUBLE_EQ(p.current_fps(500_ms).value(), 0.0);
  // No frame survives the reset: with no new work, nothing runs or flips.
  src.set_enabled(false);
  const PipelineStepResult after = run_for(p, src, 500_ms, 1e9, 1e9, 1_ms, 500_ms);
  EXPECT_EQ(after.frames_presented, 0);
  EXPECT_DOUBLE_EQ(after.cpu_busy_seconds, 0.0);
  EXPECT_DOUBLE_EQ(after.gpu_busy_seconds, 0.0);
}

TEST(Pipeline, FrameTimingIndependentOfStepSize) {
  // The intra-step event walk must make 1 ms and 5 ms engine steps agree.
  RenderPipeline p1;
  ConstantSource s1{8e6, 9e6};
  const int presented1 = run_for(p1, s1, 3_s, 1.2e9, 5e8, 1_ms).frames_presented;
  RenderPipeline p5;
  ConstantSource s5{8e6, 9e6};
  const int presented5 = run_for(p5, s5, 3_s, 1.2e9, 5e8, SimTime::from_ms(5)).frames_presented;
  EXPECT_NEAR(presented1, presented5, 2);
}

/// Property: presented frames never exceed VSync ticks, and every started
/// frame is eventually presented or still in flight.
class PipelineConservation : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(PipelineConservation, FrameAccounting) {
  const auto [cpu_cycles, gpu_cycles] = GetParam();
  RenderPipeline p;
  ConstantSource src{cpu_cycles, gpu_cycles};
  const int presented = run_for(p, src, 2_s, 1.5e9, 4.5e8).frames_presented;
  EXPECT_LE(presented, 121);
  const auto in_flight_max = 5;  // cpu + handoff + gpu + completed(2) bounded
  EXPECT_GE(src.frames_started(), presented);
  EXPECT_LE(src.frames_started(), presented + in_flight_max);
}

INSTANTIATE_TEST_SUITE_P(
    Costs, PipelineConservation,
    ::testing::Values(std::make_tuple(1e6, 1e6), std::make_tuple(1e7, 5e6),
                      std::make_tuple(5e6, 1e7), std::make_tuple(2e7, 2e7),
                      std::make_tuple(4e7, 1e6)));

}  // namespace
}  // namespace nextgov::render
