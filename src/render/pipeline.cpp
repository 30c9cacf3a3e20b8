#include "render/pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace nextgov::render {

namespace {
constexpr double kInf = 1e18;
}

RenderPipeline::RenderPipeline(PipelineConfig cfg)
    : cfg_{cfg}, vsync_period_us_{1e6 / cfg.refresh_hz} {
  require(cfg.refresh_hz > 0.0, "refresh rate must be positive");
  require(cfg.back_buffers >= 1, "need at least one back buffer");
  next_vsync_us_ = vsync_period_us_;
}

void RenderPipeline::reset(SimTime now) noexcept {
  cpu_job_.reset();
  handoff_.reset();
  gpu_job_.reset();
  completed_ = 0;
  pending_gpu_cycles_ = 0.0;
  fps_counter_.clear();
  drop_counter_.clear();
  const double now_us = static_cast<double>(now.us());
  next_vsync_us_ = (std::floor(now_us / vsync_period_us_) + 1.0) * vsync_period_us_;
}

void RenderPipeline::try_start_cpu(SimTime now, FrameSource& source) {
  // The CPU can record the next frame as long as its output slot is free;
  // buffer back-pressure is applied at the GPU handoff.
  if (cpu_job_.has_value() || handoff_.has_value()) return;
  if (!source.wants_frame(now)) return;
  const FrameJob job = source.begin_frame(now);
  cpu_job_ = StageJob{std::max(job.cpu_cycles, 1.0), static_cast<double>(now.us())};
  pending_gpu_cycles_ = std::max(job.gpu_cycles, 1.0);
}

void RenderPipeline::try_handoff_to_gpu() {
  // The GPU needs a free back buffer to render into: one is occupied per
  // completed-but-unflipped frame.
  if (!handoff_.has_value() || gpu_job_.has_value()) return;
  if (completed_ >= cfg_.back_buffers) return;
  gpu_job_ = StageJob{handoff_->gpu_cycles, handoff_->started_us};
  handoff_.reset();
}

double RenderPipeline::oldest_inflight_start_us() const noexcept {
  double oldest = -1.0;
  const auto consider = [&oldest](double t) {
    if (oldest < 0.0 || t < oldest) oldest = t;
  };
  if (gpu_job_) consider(gpu_job_->started_us);
  if (handoff_) consider(handoff_->started_us);
  if (cpu_job_) consider(cpu_job_->started_us);
  return oldest;
}

PipelineStepResult RenderPipeline::step(SimTime now, SimTime dt, double f_cpu_hz,
                                        double f_gpu_hz, FrameSource& source) {
  NEXTGOV_ASSERT(f_cpu_hz > 0.0 && f_gpu_hz > 0.0);
  PipelineStepResult result;
  double cursor_us = static_cast<double>(now.us());
  const double end_us = cursor_us + static_cast<double>(dt.us());
  const double cpu_rate = f_cpu_hz / 1e6;  // cycles per microsecond
  const double gpu_rate = f_gpu_hz / 1e6;

  while (cursor_us < end_us - 1e-9) {
    try_start_cpu(SimTime{static_cast<std::int64_t>(cursor_us)}, source);
    try_handoff_to_gpu();

    // Time to each candidate event.
    const double to_vsync = next_vsync_us_ - cursor_us;
    const double to_cpu_done =
        cpu_job_ ? cpu_job_->remaining_cycles / cpu_rate : kInf;
    const double to_gpu_done =
        gpu_job_ ? gpu_job_->remaining_cycles / gpu_rate : kInf;
    const double to_end = end_us - cursor_us;
    const double advance = std::max(1e-6, std::min({to_vsync, to_cpu_done, to_gpu_done, to_end}));

    if (cpu_job_) {
      cpu_job_->remaining_cycles -= advance * cpu_rate;
      result.cpu_busy_seconds += advance / 1e6;
      if (cpu_job_->remaining_cycles <= 1e-6) {
        const double started = cpu_job_->started_us;
        cpu_job_.reset();
        handoff_ = HandoffJob{pending_gpu_cycles_, started};
      }
    }
    if (gpu_job_) {
      gpu_job_->remaining_cycles -= advance * gpu_rate;
      result.gpu_busy_seconds += advance / 1e6;
      if (gpu_job_->remaining_cycles <= 1e-6) {
        gpu_job_.reset();
        ++completed_;
        NEXTGOV_ASSERT(completed_ <= cfg_.back_buffers);
      }
    }

    cursor_us += advance;

    if (cursor_us >= next_vsync_us_ - 1e-9) {
      // VSync: flip a completed back buffer to the front, or - when a frame
      // has been in flight for more than a full VSync period without
      // finishing - record a missed deadline (a user-visible drop). A frame
      // that merely started mid-interval (video cadence) is not a drop.
      if (completed_ > 0) {
        --completed_;
        ++result.frames_presented;
        fps_counter_.on_present(SimTime{static_cast<std::int64_t>(cursor_us)});
      } else {
        const double oldest = oldest_inflight_start_us();
        if (oldest >= 0.0 && cursor_us - oldest > vsync_period_us_ + 1e-6) {
          ++result.frames_dropped;
          drop_counter_.on_present(SimTime{static_cast<std::int64_t>(cursor_us)});
        }
      }
      next_vsync_us_ += vsync_period_us_;
    }
  }
  return result;
}

}  // namespace nextgov::render
