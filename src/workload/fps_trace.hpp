// fps_trace.hpp - recorded frame-rate sample traces.
//
// The frame-window ablation consumes the *same interaction stream* a live
// session produced. An FpsTrace is the sequence of 25 ms frame-rate samples
// (exactly what the Next agent's frame window sees), so experiments replay
// it without re-simulating.
#pragma once

#include <vector>

#include "common/sim_time.hpp"

namespace nextgov::workload {

struct FpsSample {
  SimTime time;
  double fps;
};

class FpsTrace {
 public:
  FpsTrace() = default;

  void add(SimTime t, double fps) { samples_.push_back({t, fps}); }
  [[nodiscard]] const std::vector<FpsSample>& samples() const noexcept { return samples_; }
  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }

 private:
  std::vector<FpsSample> samples_;
};

}  // namespace nextgov::workload
