// rc_network.hpp - lumped-parameter RC thermal network.
//
// Standard compact thermal model for SoCs (HotSpot-style): each node has a
// heat capacity C [J/K]; edges have thermal conductance G [W/K]; every node
// may also leak to the ambient boundary. Heat equation per node i:
//
//   C_i dT_i/dt = P_i + sum_j G_ij (T_j - T_i) + G_i,amb (T_amb - T_i)
//
// Integrated with forward Euler and automatic sub-stepping so the scheme
// stays stable (dt_sub < min_i C_i / sum G_i) for any caller-provided step.
//
// The solver is split into structure and state:
//
//   * RcTopology is the immutable solver structure - the per-node CSR
//     neighbor layout with edge conductances, the per-node capacitance
//     inverses and the explicit-Euler stability bound. It is shared
//     ref-counted (std::shared_ptr<const RcTopology>) across every session
//     simulating the same device, so fleet-scale sweeps build the CSR
//     exactly once.
//   * RcNetwork is a thin per-session state view over a topology: node
//     temperatures, injected powers, the ambient boundary and the cached
//     sub-step count for the engine's fixed step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "common/units.hpp"

namespace nextgov::thermal {

using NodeId = std::size_t;

/// One node's immutable structural parameters.
struct RcNodeSpec {
  std::string name;
  double capacity;   // J/K
  double g_ambient;  // W/K to the ambient boundary (0 for internal nodes)
};

/// One undirected edge's structural parameters.
struct RcEdgeSpec {
  NodeId a;
  NodeId b;
  double g;  // W/K
};

/// The immutable, shareable solver structure: node/edge specs plus every
/// precomputed view the steppers need. Build once (RcTopology::make), share
/// across sessions with std::shared_ptr<const RcTopology>; per-session
/// state lives in RcNetwork.
class RcTopology {
 public:
  /// Validates and precomputes; throws ConfigError on invalid parameters
  /// (non-positive capacity/conductance, unknown ids, self-loops).
  RcTopology(std::vector<RcNodeSpec> nodes, std::vector<RcEdgeSpec> edges);

  /// Convenience: shared, immutable instance.
  [[nodiscard]] static std::shared_ptr<const RcTopology> make(std::vector<RcNodeSpec> nodes,
                                                              std::vector<RcEdgeSpec> edges);

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] const std::vector<RcNodeSpec>& nodes() const noexcept { return nodes_; }
  [[nodiscard]] const std::vector<RcEdgeSpec>& edges() const noexcept { return edges_; }

  // Precomputed views (hot-loop layout): node i's neighbors are
  // nbr_node()[row_ptr()[i] .. row_ptr()[i+1]) with matching conductances.
  [[nodiscard]] std::span<const std::uint32_t> row_ptr() const noexcept { return row_ptr_; }
  [[nodiscard]] std::span<const std::uint32_t> nbr_node() const noexcept { return nbr_node_; }
  [[nodiscard]] std::span<const double> nbr_g() const noexcept { return nbr_g_; }
  [[nodiscard]] std::span<const double> inv_cap() const noexcept { return inv_cap_; }
  [[nodiscard]] std::span<const double> g_ambient() const noexcept { return g_ambient_; }

  /// Sub-steps needed to advance `total_s` seconds stably: steps of at most
  /// half the per-node explicit-Euler bound.
  [[nodiscard]] std::size_t substeps_for(double total_s) const noexcept;

 private:
  std::vector<RcNodeSpec> nodes_;
  std::vector<RcEdgeSpec> edges_;

  std::vector<std::uint32_t> row_ptr_;
  std::vector<std::uint32_t> nbr_node_;
  std::vector<double> nbr_g_;
  std::vector<double> inv_cap_;
  std::vector<double> g_ambient_;
  double max_stable_dt_s_{0.0};
};

/// Per-session RC network state over a shared RcTopology.
class RcNetwork {
 public:
  /// State view over `topology`, all nodes at `ambient`. Fleet-scale sweeps
  /// create sessions this way: one topology, N states.
  RcNetwork(std::shared_ptr<const RcTopology> topology, Celsius ambient);

  [[nodiscard]] std::size_t node_count() const noexcept { return temp_.size(); }
  [[nodiscard]] Celsius temperature(NodeId id) const;

  /// Sets the heat injected into `id` for the next step(s) [W].
  void set_power(NodeId id, Watts p);

  /// Advances the network by `dt`, sub-stepping as needed for stability.
  void step(SimTime dt);

  /// Forces all node temperatures to `t` (session reset).
  void set_all_temperatures(Celsius t) noexcept;

  /// Node temperatures in node order (the engine's observation reads).
  /// Valid until the next step(): each substep swaps two buffers.
  [[nodiscard]] std::span<const double> temperatures_raw() const noexcept { return temp_; }

 private:
  void euler_substep(double dt_s) noexcept;

  std::shared_ptr<const RcTopology> topo_;
  Celsius ambient_;
  std::vector<double> temp_;   // per node, degrees C
  std::vector<double> power_;  // per node, injected heat W

  // Sub-step count for the last-seen step size (one engine runs a fixed dt,
  // so this caches the ceil/divide of the stability analysis).
  std::int64_t cached_dt_us_{-1};
  std::size_t cached_substeps_{1};
  double cached_dt_sub_s_{0.0};

  std::vector<double> next_;  // the substep's output; swapped with temp_
};

}  // namespace nextgov::thermal
