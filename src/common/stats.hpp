// stats.hpp - streaming statistics used throughout the evaluation harness.
//
// RunningStats is a single-pass accumulator (mean, min, max) used for
// per-session summaries (average power, peak temperature, mean FPS).
#pragma once

#include <cstddef>
#include <span>

namespace nextgov {

/// Welford's running mean; numerically stable for long sessions.
class RunningStats {
 public:
  void add(double x) noexcept;

  /// Mean of the observed samples; 0 when empty.
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ > 0 ? max_ : 0.0; }

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double min_{0.0};
  double max_{0.0};
};

/// Arithmetic mean of a span; 0 when empty.
[[nodiscard]] double mean_of(std::span<const double> values) noexcept;

}  // namespace nextgov
