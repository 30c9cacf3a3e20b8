// convergence.hpp - training-convergence detection.
//
// The paper reports per-app training periods ("the average training period
// lasts around 3 minutes 27 seconds", Section IV-B) without giving the stop
// rule; we declare training converged when the exponentially-weighted mean
// of |TD error| stays below a threshold for a full confirmation window and
// a minimum number of updates has elapsed. The same detector measures the
// online and cloud training times of Fig. 6.
#pragma once

#include <cstdint>

namespace nextgov::rl {

struct ConvergenceParams {
  double td_threshold{0.08};         ///< |TD| EMA level regarded as settled
  double ema_alpha{0.01};            ///< EMA smoothing for |TD|
  std::uint64_t min_updates{2000};   ///< never declare before this many updates
  std::uint64_t confirm_updates{300};///< EMA must stay below for this long
};

class ConvergenceDetector {
 public:
  explicit ConvergenceDetector(ConvergenceParams params = {});

  /// Feeds one TD error; returns true once converged (latching).
  bool add(double td_error) noexcept;

  [[nodiscard]] bool converged() const noexcept { return converged_; }
  [[nodiscard]] double td_ema() const noexcept { return ema_; }
  [[nodiscard]] std::uint64_t updates() const noexcept { return updates_; }

  void reset() noexcept;

 private:
  ConvergenceParams params_;
  double ema_{1.0};
  std::uint64_t updates_{0};
  std::uint64_t below_count_{0};
  bool converged_{false};
};

}  // namespace nextgov::rl
