#include "soc/power_model.hpp"

#include <algorithm>
#include <cmath>

namespace nextgov::soc {

// Both terms read the coefficients Cluster tables per OPP at construction
// (C_eff * V^2 * f and k_leak * V): the hot loop evaluates three clusters
// per 1 ms step, and only the utilization and the exp() temperature factor
// vary within a session.

Watts dynamic_power(const Cluster& cluster, double busy_avg) noexcept {
  const double util = std::clamp(busy_avg, 0.0, 1.0);
  return Watts{cluster.dyn_power_coeff_w() * util};
}

Watts leakage_power(const Cluster& cluster, Celsius temp) noexcept {
  const double beta = cluster.power_params().leak_temp_beta;
  return Watts{cluster.leak_power_coeff_w() * std::exp(beta * (temp.value() - 25.0))};
}

Watts cluster_power(const Cluster& cluster, const ClusterLoad& load, Celsius temp) noexcept {
  return dynamic_power(cluster, load.busy_avg) + leakage_power(cluster, temp);
}

}  // namespace nextgov::soc
