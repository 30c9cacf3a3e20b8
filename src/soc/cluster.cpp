#include "soc/cluster.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace nextgov::soc {

Cluster::Cluster(ClusterKind kind, std::size_t core_count, OppTable opps,
                 ClusterPowerParams power_params)
    : kind_{kind},
      cores_{core_count},
      opps_{std::move(opps)},
      power_{power_params},
      max_cap_{opps_.size() - 1} {
  require(cores_ > 0, "cluster must have at least one core");
  require(power_.c_eff_total_farads > 0.0, "effective capacitance must be positive");
  require(power_.leak_coeff_w_per_v >= 0.0, "leakage coefficient must be non-negative");
  dyn_coeff_w_.reserve(opps_.size());
  leak_coeff_w_.reserve(opps_.size());
  inv_rel_speed_.reserve(opps_.size());
  for (const auto& opp : opps_.points()) {
    const double v = opp.voltage.value();
    dyn_coeff_w_.push_back(power_.c_eff_total_farads * v * v * opp.frequency.hz());
    leak_coeff_w_.push_back(power_.leak_coeff_w_per_v * v);
    inv_rel_speed_.push_back(opps_.highest().frequency / opp.frequency);
  }
}

void Cluster::set_freq_index(std::size_t i) noexcept {
  index_ = std::clamp(i, min_cap_, max_cap_);
}

void Cluster::request_frequency(KiloHertz f) noexcept { set_freq_index(opps_.ceil_index(f)); }

void Cluster::set_max_cap_index(std::size_t i) noexcept {
  max_cap_ = std::min(i, opps_.size() - 1);
  max_cap_ = std::max(max_cap_, min_cap_);
  if (index_ > max_cap_) index_ = max_cap_;
}

void Cluster::reset_caps() noexcept {
  min_cap_ = 0;
  max_cap_ = opps_.size() - 1;
}

}  // namespace nextgov::soc
