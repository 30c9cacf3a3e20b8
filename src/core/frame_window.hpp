// frame_window.hpp - the paper's user-interaction analysis window.
//
// Section IV-A: "the agent continuously monitors the frame rate every 25 ms
// for a window of n seconds. [...] choosing the frame window for 4 seconds
// generates the best frame rate pattern analysis from user's interaction.
// [...] For 4 seconds of frame window we are able to capture 160 distinct
// values of frame rate [...]. The agent now computes the mathematical mode
// operation of all the 160 distinct values, which actually determines the
// most possible frame rate suitable to provide the desirable QoS."
//
// The window length and sample period are configurable (the ablation bench
// sweeps 1/2/4/8 s windows); defaults match the paper.
#pragma once

#include <vector>

#include "common/ring_buffer.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"

namespace nextgov::core {

class FrameWindow {
 public:
  /// Highest representable frame rate (headroom above the 60 Hz panels the
  /// paper targets, for 120 Hz what-if studies).
  static constexpr int kMaxFps = 240;

  explicit FrameWindow(SimTime sample_period = SimTime::from_ms(25),
                       SimTime window = SimTime::from_seconds(4.0));

  /// Records one frame-rate sample (called every sample_period). O(1): the
  /// mode is maintained incrementally so the agent's 100 ms decision path
  /// never rescans the 160-sample window.
  void add_sample(Fps fps);

  /// The mode of the buffered samples - the paper's target FPS. 0 while no
  /// samples have been collected.
  [[nodiscard]] int target_fps() const;

  [[nodiscard]] bool full() const noexcept { return samples_.full(); }

  void clear() noexcept;

 private:
  RingBuffer<int> samples_;
  std::vector<int> counts_;      ///< histogram over [0, kMaxFps]
  mutable int mode_{0};          ///< cached mode (largest value on ties)
  mutable bool mode_dirty_{false};
  int max_value_seen_{0};        ///< upper bound for the dirty-mode rescan
};

}  // namespace nextgov::core
