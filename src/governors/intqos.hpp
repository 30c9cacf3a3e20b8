// intqos.hpp - reimplementation of "Int. QoS PM" (Pathania et al., DAC'14),
// the paper's state-of-the-art comparison point.
//
// The original is an integrated CPU-GPU power manager for 3D mobile games:
//   1. the target FPS is the *average* frame rate observed over a window
//      (the paper criticizes exactly this averaging in Section II);
//   2. a frame-time model t(f_cpu, f_gpu) = a/f_cpu + b/f_gpu + c is
//      identified online;
//   3. every period the (f_cpu, f_gpu) pair with the lowest power-cost that
//      still satisfies t <= 1/target is applied.
// We fit (a, b, c) with recursive least squares over observed
// (frequency, frame time) samples and use the V^2*f proxy from the OPP
// voltages as the cost - the same information the original derives from its
// offline power model. LITTLE is not managed (the original targets the
// big CPU + GPU of its platform), and the scheme is only meaningful for
// continuously rendering workloads, i.e. games - matching the paper's
// statement that it "could not be extended to all applications".
#pragma once

#include <array>

#include "governors/governor.hpp"

namespace nextgov::governors {

struct IntQosParams {
  SimTime period{SimTime::from_ms(100)};   ///< control period
  double fps_window_alpha{0.05};           ///< EMA weight (~2 s at 100 ms)
  double rls_forgetting{0.985};            ///< RLS forgetting factor
  double min_target_fps{15.0};             ///< floor so menus don't stall games
  double gpu_cost_weight{1.0};             ///< relative GPU power weight in cost
};

class IntQosGovernor final : public MetaGovernor {
 public:
  explicit IntQosGovernor(IntQosParams params = {});

  [[nodiscard]] SimTime period() const override { return params_.period; }
  void control(const Observation& obs, soc::Soc& soc) override;
  void reset() override;
  [[nodiscard]] std::string_view name() const override { return "intqos"; }

  /// Current averaged FPS target (exposed for tests).
  [[nodiscard]] double target_fps() const noexcept { return fps_avg_; }
  /// Current frame-time model coefficients {a, b, c} (exposed for tests).
  [[nodiscard]] std::array<double, 3> model() const noexcept { return theta_; }

 private:
  void rls_update(const std::array<double, 3>& x, double y) noexcept;
  [[nodiscard]] double predict_frame_time(double f_cpu_ghz, double f_gpu_ghz) const noexcept;

  IntQosParams params_;
  double fps_avg_{0.0};
  bool fps_avg_init_{false};
  std::array<double, 3> theta_{};       ///< [a, b, c]
  std::array<double, 9> p_;             ///< RLS covariance, row-major 3x3
};

}  // namespace nextgov::governors
