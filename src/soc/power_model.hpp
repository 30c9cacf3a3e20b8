// power_model.hpp - analytic CMOS power model with leakage-temperature
// feedback.
//
// Replaces the Note 9's fuel-gauge power measurements (DESIGN.md
// substitution table). Per cluster:
//
//   P_dyn  = C_eff_total * V^2 * f * util          (switching power)
//   P_leak = k_leak * V * exp(beta * (T - 25 C))   (subthreshold leakage)
//
// The exponential leakage term couples the thermal state back into power,
// which is what makes thermal management power-relevant and what the paper's
// PPDW metric rewards. Device power adds a display + rest-of-device floor so
// absolute magnitudes land in the 1-12 W envelope the paper reports.
#pragma once

#include "common/units.hpp"
#include "soc/cluster.hpp"

namespace nextgov::soc {

/// Utilization of one cluster during a simulation step.
struct ClusterLoad {
  /// Mean busy fraction across the whole cluster in [0,1] (drives power).
  double busy_avg{0.0};
  /// Busy fraction of the busiest PE in [0,1] (drives frequency governors).
  double busy_hot{0.0};
};

/// Dynamic (switching) power of `cluster` at mean utilization `busy_avg`.
[[nodiscard]] Watts dynamic_power(const Cluster& cluster, double busy_avg) noexcept;

/// Leakage power of `cluster` at junction temperature `temp`.
[[nodiscard]] Watts leakage_power(const Cluster& cluster, Celsius temp) noexcept;

/// Total cluster power (dynamic + leakage).
[[nodiscard]] Watts cluster_power(const Cluster& cluster, const ClusterLoad& load,
                                  Celsius temp) noexcept;

/// Non-SoC device power floor.
struct DevicePowerParams {
  Watts display{Watts{1.00}};        ///< panel + backlight at typical brightness
  Watts rest_of_device{Watts{0.35}}; ///< radios, sensors, PMIC losses, DRAM refresh
};

}  // namespace nextgov::soc
