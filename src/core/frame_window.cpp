#include "core/frame_window.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace nextgov::core {

namespace {
std::size_t window_capacity(SimTime sample_period, SimTime window) {
  require(sample_period.us() > 0, "frame window sample period must be positive");
  require(window.us() >= sample_period.us(), "frame window must hold at least one sample");
  return static_cast<std::size_t>(window / sample_period);
}
}  // namespace

FrameWindow::FrameWindow(SimTime sample_period, SimTime window)
    : samples_(window_capacity(sample_period, window)), counts_(kMaxFps + 1, 0) {}

void FrameWindow::add_sample(Fps fps) {
  const int value = std::clamp(fps.rounded(), 0, kMaxFps);
  int& slot = samples_[next_];
  if (full_) {
    --counts_[static_cast<std::size_t>(slot)];
    // Removing a sample of the current mode may dethrone it.
    if (slot == mode_) mode_dirty_ = true;
  }
  slot = value;
  if (++next_ == samples_.size()) {
    next_ = 0;
    full_ = true;
  }
  ++counts_[static_cast<std::size_t>(value)];
  if (value > max_value_seen_) max_value_seen_ = value;
  if (!mode_dirty_) {
    const auto c_new = counts_[static_cast<std::size_t>(value)];
    const auto c_mode = counts_[static_cast<std::size_t>(mode_)];
    // Ties resolve toward the larger FPS (never under-provision QoS).
    if (c_new > c_mode || (c_new == c_mode && value > mode_)) mode_ = value;
  }
}

int FrameWindow::target_fps() const {
  if (mode_dirty_) {
    int best = 0;
    int best_count = 0;
    // Buckets above the largest value ever buffered are zero by
    // construction; at 60 Hz this scans ~60 buckets instead of 240.
    for (int v = 0; v <= max_value_seen_; ++v) {
      const int c = counts_[static_cast<std::size_t>(v)];
      if (c >= best_count && c > 0) {
        best = v;
        best_count = c;
      }
    }
    mode_ = best;
    mode_dirty_ = false;
  }
  return mode_;
}

void FrameWindow::clear() noexcept {
  next_ = 0;
  full_ = false;
  std::fill(counts_.begin(), counts_.end(), 0);
  mode_ = 0;
  mode_dirty_ = false;
  max_value_seen_ = 0;
}

}  // namespace nextgov::core
