// rc_batch.hpp - structure-of-arrays batch stepper for many same-topology
// RC networks.
//
// Fleet-scale simulation advances hundreds of sessions through the same
// 1 ms engine tick, and every one of them steps an identical RcTopology
// (the Note 9 network) with its own temperatures/powers/ambient. Stepping
// them one RcNetwork at a time wastes the structure sharing: each call
// re-walks the tiny CSR with scalar arithmetic and per-call dispatch
// overhead. RcBatch instead holds N sessions' node state in contiguous
// [node][session] arrays and advances all of them in one sweep whose inner
// loops run over the session axis - plain auto-vectorizable C++, no
// intrinsics.
//
// Bit-identity contract: for every session s, the sequence of
// floating-point operations applied to s's state is exactly the sequence
// RcNetwork::step() would apply (same flux expression, same CSR neighbor
// order, same sub-step count and sub-step size, same update order), so
// batch stepping is bit-identical to per-session stepping - not merely
// close. tests/thermal/rc_batch_test.cpp and
// tests/sim/batch_resident_test.cpp both gate on exact equality.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "thermal/rc_network.hpp"

namespace nextgov::thermal {

// SoA layout assumptions behind the lane accessors and the euler sweep:
// node i's state is `sessions` contiguous IEEE-754 binary64 values starting
// at base + i * sessions; lane pointers stay valid for the batch's lifetime
// because the arrays are sized once at construction and never reallocate.
static_assert(sizeof(double) == 8 && alignof(double) == 8,
              "RcBatch lane stride math assumes 8-byte doubles");

/// N same-topology sessions stepped lock-step in one SoA sweep.
class RcBatch {
 public:
  /// All sessions start at `initial` (per-session ambient defaults to it
  /// too; override with set_ambient()).
  RcBatch(std::shared_ptr<const RcTopology> topology, std::size_t sessions,
          Celsius initial = Celsius{21.0});

  [[nodiscard]] std::size_t session_count() const noexcept { return sessions_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return topo_->node_count(); }
  [[nodiscard]] const std::shared_ptr<const RcTopology>& topology() const noexcept {
    return topo_;
  }

  void set_ambient(std::size_t session, Celsius t);
  [[nodiscard]] Celsius ambient(std::size_t session) const;

  void set_power(std::size_t session, NodeId node, Watts p);
  [[nodiscard]] Watts power(std::size_t session, NodeId node) const;
  [[nodiscard]] Celsius temperature(std::size_t session, NodeId node) const;
  void set_all_temperatures(std::size_t session, Celsius t);

  // Batch entry and exit against a per-session RcNetwork view (same
  // topology pointer required: sharing is what makes the sessions
  // homogeneous).
  /// Adopts `net`'s full state: temperatures, powers and ambient.
  void load_state(std::size_t session, const RcNetwork& net);
  /// Writes the session's temperatures back into `net` (so engine-side
  /// consumers keep reading their own network).
  void store_temperatures(std::size_t session, RcNetwork& net) const;

  /// Raw SoA lanes: `session_count()` contiguous doubles per node, one
  /// value per session in session order. The batch-resident pipeline works
  /// in these directly - soc::PowerBatch writes cluster powers into
  /// power_lane(junction node) and the engine's observation refresh reads
  /// temperature_lane(node)[session]. Pointers stay valid for the batch's
  /// lifetime.
  [[nodiscard]] const double* temperature_lane(NodeId node) const noexcept {
    NEXTGOV_ASSERT(node < node_count());
    return temp_.data() + node * sessions_;
  }
  [[nodiscard]] double* power_lane(NodeId node) noexcept {
    NEXTGOV_ASSERT(node < node_count());
    return power_.data() + node * sessions_;
  }

  /// Advances every session by `dt`, sub-stepping exactly like
  /// RcNetwork::step() (same count, same sub-step size).
  void step(SimTime dt);

 private:
  void euler_substep(double dt_s) noexcept;

  std::shared_ptr<const RcTopology> topo_;
  std::size_t sessions_;
  // SoA state: node i, session s lives at [i * sessions_ + s].
  std::vector<double> temp_;
  std::vector<double> power_;
  std::vector<double> flux_;     // scratch, same layout
  std::vector<double> ambient_;  // per session

  // Sub-step count cache for the engines' fixed step, as in RcNetwork.
  std::int64_t cached_dt_us_{-1};
  std::size_t cached_substeps_{1};
  double cached_dt_sub_s_{0.0};
};

}  // namespace nextgov::thermal
