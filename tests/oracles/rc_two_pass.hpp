// rc_two_pass.hpp - the RC network's forward-Euler substep as two passes
// over the CSR layout: first every node's net heat flux, then every
// temperature. The solver (thermal/rc_network.hpp) fuses the passes and
// swaps buffers; it is held to this reference bit for bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "thermal/rc_network.hpp"

namespace nextgov::test {

/// Per-session state over a shared topology, stepped the two-pass way.
class TwoPassRcNetwork {
 public:
  TwoPassRcNetwork(std::shared_ptr<const thermal::RcTopology> topology, Celsius ambient)
      : topo_{std::move(topology)}, ambient_{ambient} {
    temp_.assign(topo_->node_count(), ambient_.value());
    power_.assign(topo_->node_count(), 0.0);
    flux_.assign(topo_->node_count(), 0.0);
  }

  void set_power(thermal::NodeId id, Watts p) { power_[id] = p.value(); }
  void set_all_temperatures(Celsius t) { std::fill(temp_.begin(), temp_.end(), t.value()); }
  [[nodiscard]] std::span<const double> temperatures_raw() const noexcept { return temp_; }

  void step(SimTime dt) {
    if (temp_.empty() || dt.us() == 0) return;
    const double total_s = dt.seconds();
    const std::size_t substeps = topo_->substeps_for(total_s);
    const double dt_sub_s = total_s / static_cast<double>(substeps);
    for (std::size_t k = 0; k < substeps; ++k) euler_substep(dt_sub_s);
  }

 private:
  void euler_substep(double dt_s) noexcept {
    const thermal::RcTopology& t = *topo_;
    const std::size_t n = temp_.size();
    const double amb = ambient_.value();
    const std::uint32_t* const row_ptr = t.row_ptr().data();
    const std::uint32_t* const nbr_node = t.nbr_node().data();
    const double* const nbr_g = t.nbr_g().data();
    const double* const g_amb = t.g_ambient().data();
    const double* const inv_cap = t.inv_cap().data();
    const double* const power = power_.data();
    double* const temp = temp_.data();
    double* const flux = flux_.data();
    for (std::size_t i = 0; i < n; ++i) {
      double f = power[i] + g_amb[i] * (amb - temp[i]);
      const std::uint32_t end = row_ptr[i + 1];
      for (std::uint32_t k = row_ptr[i]; k < end; ++k) {
        f += nbr_g[k] * (temp[nbr_node[k]] - temp[i]);
      }
      flux[i] = f;
    }
    for (std::size_t i = 0; i < n; ++i) {
      temp[i] += dt_s * flux[i] * inv_cap[i];
    }
  }

  std::shared_ptr<const thermal::RcTopology> topo_;
  Celsius ambient_;
  std::vector<double> temp_;
  std::vector<double> power_;
  std::vector<double> flux_;
};

}  // namespace nextgov::test
