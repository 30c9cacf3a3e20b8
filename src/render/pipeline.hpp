// pipeline.hpp - the VSync-synchronized CPU->GPU rendering pipeline.
//
// Models Android's triple buffering exactly as the paper describes
// (Section I): one front buffer owned by the display, two back buffers the
// CPU/GPU render into. The display refreshes only on VSync (every 16.67 ms
// at 60 Hz); when no freshly rendered back buffer is available at a VSync
// the previous frame stays on screen - a *frame drop*.
//
// Stages per frame: the CPU records the frame (cpu_cycles at the big-cluster
// clock, one core), hands off to the GPU (gpu_cycles at the GPU clock),
// the completed buffer queues for the next VSync flip. Stages of consecutive
// frames overlap (CPU on frame n+1 while GPU renders frame n), so the
// sustainable frame rate is min(refresh, 1/max(t_cpu, t_gpu)).
//
// The pipeline is advanced in engine steps (1 ms); inside a step it walks an
// exact event sequence (CPU completion, GPU completion, VSync), so frame
// timing does not depend on the engine step size.
#pragma once

#include <cstdint>
#include <optional>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "render/fps_counter.hpp"
#include "render/frame.hpp"

namespace nextgov::render {

/// Per-step accounting returned to the engine for utilization/power.
struct PipelineStepResult {
  double cpu_busy_seconds{0.0};  ///< time the render CPU stage was executing
  double gpu_busy_seconds{0.0};  ///< time the GPU stage was executing
  int frames_presented{0};       ///< VSync flips with new content
  int frames_dropped{0};         ///< VSyncs missed while frames were pending
};

struct PipelineConfig {
  double refresh_hz{60.0};  ///< display refresh rate (60 Hz per the paper)
  int back_buffers{2};      ///< Android triple buffering: 2 back buffers
};

class RenderPipeline {
 public:
  explicit RenderPipeline(PipelineConfig cfg = {});

  /// Advances from `now` to `now + dt`. `f_cpu_hz`/`f_gpu_hz` are the
  /// current big-cluster and GPU clock rates (assumed constant within the
  /// step; the engine steps at 1 ms, finer than any governor action).
  PipelineStepResult step(SimTime now, SimTime dt, double f_cpu_hz, double f_gpu_hz,
                          FrameSource& source);

  /// Instantaneous frame rate over a trailing 1 s window.
  [[nodiscard]] Fps current_fps(SimTime now) const { return fps_counter_.fps(now); }

  /// Missed-deadline VSyncs per second over a trailing 1 s window (the
  /// "lag or stutter" QoS signal of Section I).
  [[nodiscard]] double current_drop_rate(SimTime now) const {
    return drop_counter_.fps(now).value();
  }

  void reset(SimTime now) noexcept;

 private:
  struct StageJob {
    double remaining_cycles;
    double started_us;  ///< when this frame entered the pipeline
  };

  PipelineConfig cfg_;
  double vsync_period_us_;
  double next_vsync_us_{0.0};

  struct HandoffJob {
    double gpu_cycles;
    double started_us;
  };

  std::optional<StageJob> cpu_job_;
  std::optional<HandoffJob> handoff_;  ///< CPU-finished frame waiting for the GPU
  std::optional<StageJob> gpu_job_;
  int completed_{0};  ///< rendered back buffers awaiting a VSync flip

  SlidingFpsCounter fps_counter_;
  SlidingFpsCounter drop_counter_;

  /// Remembers the GPU cost of the frame currently in the CPU stage.
  double pending_gpu_cycles_{0.0};

  /// Start time of the oldest in-flight (not yet completed) frame, or a
  /// negative value when nothing is in flight.
  [[nodiscard]] double oldest_inflight_start_us() const noexcept;

  void try_start_cpu(SimTime now, FrameSource& source);
  void try_handoff_to_gpu();
};

}  // namespace nextgov::render
