// power_batch.hpp - structure-of-arrays power-model evaluation for many
// same-SoC sessions.
//
// The engine evaluates the power model for three clusters every 1 ms step,
// and a batch-resident group (sim::execute()'s lock-step path) advances N
// sessions through that step lock-step. Per session the OPP-dependent parts
// are already dense per-OPP coefficient tables (Cluster::dyn_power_table /
// leak_power_table), so the whole group's power evaluation is one
// [cluster][session] table sweep - the SysScale shape: a multi-domain
// power model as a dense table walk. PowerBatch holds the group's inputs
// (current OPP index + mean utilization per cluster per session) in SoA
// lanes and writes the resulting powers straight into the thermal batch's
// power lanes, so no per-session power state sits between the two kernels.
//
// Bit-identity contract: per session the evaluation inlines exactly
// soc::cluster_power_from_coeffs - the same expression the scalar
// cluster_power() uses - and accumulates cluster powers in cluster order,
// so batch evaluation is bit-identical to the per-session power model.
// tests/soc/power_batch_test.cpp gates on exact equality.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "soc/soc.hpp"

namespace nextgov::soc {

// SoA layout assumptions behind the lane arithmetic: lanes are contiguous
// IEEE-754 binary64 values addressed as base + cluster * sessions + session.
static_assert(sizeof(double) == 8 && alignof(double) == 8,
              "PowerBatch lane stride math assumes 8-byte doubles");
static_assert(sizeof(std::uint32_t) == 4,
              "PowerBatch packs per-session OPP indices as uint32 lanes");

/// N same-SoC sessions' power models evaluated in one SoA sweep.
class PowerBatch {
 public:
  /// Copies `reference`'s per-OPP coefficient tables (one copy per group,
  /// not per session). Every session of the batch must run a SoC for which
  /// compatible() holds against the same reference.
  PowerBatch(const Soc& reference, std::size_t sessions);

  [[nodiscard]] std::size_t session_count() const noexcept { return sessions_; }
  [[nodiscard]] std::size_t cluster_count() const noexcept { return clusters_.size(); }

  /// True when `soc` evaluates bit-identically through this batch: same
  /// cluster count, per-cluster tables and leakage coefficients bitwise
  /// equal to the reference, same device power floor.
  [[nodiscard]] bool compatible(const Soc& soc) const noexcept;

  /// Per-tick inputs for one session lane: the cluster's current operating
  /// index and mean utilization (Engine::push_power_inputs fills these).
  void set_input(std::size_t session, std::size_t cluster, std::size_t freq_index,
                 double busy_avg) noexcept;

  /// Evaluates every cluster of every session in one [cluster][session]
  /// sweep: power_lanes[c][s] receives the cluster power computed from
  /// junction_temp_lanes[c][s] (thermal::RcBatch::temperature_lane /
  /// power_lane of the cluster's junction node). Also accumulates the
  /// per-session SoC total and the device power (SoC + display + rest),
  /// readable via device_power().
  void evaluate(std::span<const double* const> junction_temp_lanes,
                std::span<double* const> power_lanes) noexcept;

  /// Device power of `session` as of the last evaluate() (what the engine's
  /// fuel-gauge observation and energy totals consume).
  [[nodiscard]] Watts device_power(std::size_t session) const noexcept {
    return Watts{device_power_[session]};
  }

 private:
  struct ClusterTable {
    std::vector<double> dyn_w;   // per OPP: C_eff * V^2 * f [W at util=1]
    std::vector<double> leak_w;  // per OPP: k_leak * V [W at 25 C]
    double leak_temp_beta;
  };

  std::size_t sessions_;
  std::vector<ClusterTable> clusters_;
  double display_w_;
  double rest_of_device_w_;

  // SoA inputs: cluster c, session s lives at [c * sessions_ + s].
  std::vector<std::uint32_t> freq_idx_;
  std::vector<double> busy_avg_;
  // Per-session outputs of the last evaluate().
  std::vector<double> soc_total_w_;
  std::vector<double> device_power_;
};

}  // namespace nextgov::soc
