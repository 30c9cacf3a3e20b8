// fps_counter.hpp - sliding-window frame-rate measurement.
//
// "FPS_current ... is the frame rate of the front buffer of VSync"
// (Section IV-A): we count front-buffer updates (presented frames) inside a
// trailing window. The Next agent samples this every 25 ms; the recorder
// samples it at its own cadence.
#pragma once

#include <cstddef>
#include <vector>

#include "common/sim_time.hpp"
#include "common/units.hpp"

namespace nextgov::render {

class SlidingFpsCounter {
 public:
  /// `window` is the trailing measurement horizon (default 1 s, so the
  /// reading is directly in frames-per-second).
  explicit SlidingFpsCounter(SimTime window = SimTime::from_ms(1000));

  /// Records one presented frame at time `t`.
  void on_present(SimTime t);

  /// Frames presented in (now - window, now], scaled to per-second units.
  [[nodiscard]] Fps fps(SimTime now) const;

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  void evict(SimTime now) const;
  /// Doubles the buffer, oldest present first.
  void grow();

  SimTime window_;
  /// Present times in a circular buffer, oldest at head_; the capacity is
  /// a power of two. Appends and evictions never allocate, and the buffer
  /// grows only when full, so once it has held one window's presents the
  /// engine step allocates nothing here.
  std::vector<SimTime> presents_;
  mutable std::size_t head_{0};
  mutable std::size_t size_{0};
};

}  // namespace nextgov::render
