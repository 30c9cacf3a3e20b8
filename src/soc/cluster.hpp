// cluster.hpp - a DVFS-capable processing-element cluster.
//
// The Exynos 9810 exposes cluster-wise DVFS only (Section III-A): one
// frequency for all 4 big cores, one for all 4 LITTLE cores, one for the 18
// GPU cores. A Cluster owns its OPP table, the current operating index, and
// the min/max frequency *caps* that governors (and the Next agent, which
// actuates exclusively via maxfreq) manipulate. Invariant: the operating
// index always lies within [min_cap_index, max_cap_index].
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "soc/opp.hpp"

namespace nextgov::soc {

/// Which kind of processing elements the cluster holds.
enum class ClusterKind { kBigCpu, kLittleCpu, kGpu };

/// Electrical/physical constants of one cluster (see DESIGN.md "power in
/// watts"): dynamic power = c_eff_total * V^2 * f * util, leakage =
/// leak_coeff * V * exp(leak_temp_beta * (T - 25C)).
struct ClusterPowerParams {
  double c_eff_total_farads{1e-9};  ///< switched capacitance of the whole cluster at util=1
  double leak_coeff_w_per_v{0.1};   ///< leakage scale (whole cluster) at 25 degrees C
  double leak_temp_beta{0.0155};    ///< exponential leakage-temperature coefficient [1/K]
};

class Cluster {
 public:
  Cluster(ClusterKind kind, std::size_t core_count, OppTable opps,
          ClusterPowerParams power_params);

  [[nodiscard]] ClusterKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t core_count() const noexcept { return cores_; }
  [[nodiscard]] const OppTable& opps() const noexcept { return opps_; }
  [[nodiscard]] const ClusterPowerParams& power_params() const noexcept { return power_; }

  /// --- operating point -----------------------------------------------
  [[nodiscard]] std::size_t freq_index() const noexcept { return index_; }
  [[nodiscard]] KiloHertz frequency() const noexcept { return opps_[index_].frequency; }
  /// Requests operating index `i`; the result is clamped into the cap range.
  void set_freq_index(std::size_t i) noexcept;
  /// Requests the lowest OPP >= `f` (governor semantics), clamped to caps.
  void request_frequency(KiloHertz f) noexcept;

  /// --- caps (what meta-governors actuate) -----------------------------
  [[nodiscard]] std::size_t max_cap_index() const noexcept { return max_cap_; }
  [[nodiscard]] std::size_t min_cap_index() const noexcept { return min_cap_; }
  [[nodiscard]] KiloHertz max_cap_frequency() const noexcept {
    return opps_[max_cap_].frequency;
  }
  /// Sets the maxfreq cap; pulls the operating point down when it now
  /// exceeds the cap (exactly what writing scaling_max_freq does on Linux).
  void set_max_cap_index(std::size_t i) noexcept;
  /// Restores caps to the full OPP range.
  void reset_caps() noexcept;

  /// --- precomputed power coefficients ---------------------------------
  /// The power model evaluates every 1 ms step for every cluster, so the
  /// OPP-dependent parts are tabled at construction:
  ///   dyn_power_coeff_w  = C_eff * V^2 * f   (P_dyn = coeff * util)
  ///   leak_power_coeff_w = k_leak * V        (P_leak = coeff * exp(...))
  [[nodiscard]] double dyn_power_coeff_w() const noexcept { return dyn_coeff_w_[index_]; }
  [[nodiscard]] double leak_power_coeff_w() const noexcept { return leak_coeff_w_[index_]; }
  /// f_max / f at the current OPP (>= 1): the PELT-style demand scale
  /// factor, tabled so load accounting avoids a divide per cluster per step.
  [[nodiscard]] double inv_relative_speed() const noexcept { return inv_rel_speed_[index_]; }

 private:
  ClusterKind kind_;
  std::size_t cores_;
  OppTable opps_;
  ClusterPowerParams power_;
  std::size_t index_{0};
  std::size_t min_cap_{0};
  std::size_t max_cap_;
  std::vector<double> dyn_coeff_w_;   // per OPP: C_eff * V^2 * f [W at util=1]
  std::vector<double> leak_coeff_w_;  // per OPP: k_leak * V [W at 25 C]
  std::vector<double> inv_rel_speed_;  // per OPP: f_max / f
};

}  // namespace nextgov::soc
