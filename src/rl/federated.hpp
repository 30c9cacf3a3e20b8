// federated.hpp - cloud / federated training support (paper Section IV-C).
//
// Manufacturers ship many devices running the same apps; Section IV-C
// proposes aggregating their training in the cloud (federated learning) and
// pushing merged action-values back. Three pieces:
//
//   merge_q_tables  - staleness- and visit-weighted federated averaging of
//                     per-device Q-tables (FedAvg applied to tabular
//                     action-values) for fleets whose devices upload at
//                     different cadences;
//   StalenessMergePolicy - how fast an upload's weight decays with its age;
//   CloudTimingModel- converts a measured host-side training wall time into
//                     the end-to-end "cloud training time" the device
//                     perceives (compute + the paper's measured ~4 s
//                     round-trip communication overhead).
//
// The fleet server that drives these at scale (simulated devices training
// concurrently, merged once per round) lives one layer up in
// sim/fleet_server.hpp.
#pragma once

#include <cmath>
#include <span>

#include "rl/qtable.hpp"
#include "rl/qtable_delta.hpp"

namespace nextgov::rl {

/// Exponential staleness decay for asynchronous federated aggregation: an
/// upload that is `staleness` merge rounds old keeps
/// 2^(-staleness / half_life_rounds) of its visit weight. Staleness 0 is
/// full weight.
struct StalenessMergePolicy {
  double half_life_rounds{2.0};

  [[nodiscard]] double weight(double staleness) const noexcept {
    return std::exp2(-staleness / half_life_rounds);
  }
};

/// One merge input: `table`, or, when `delta` is set, the table
/// apply_delta(*table, *delta) would build, read without building it - the
/// base's rows with the delta's changes in their place (a change's visits
/// are the base row's, or 0 for an added state, plus its visit_delta).
struct MergeInput {
  const QTable* table{nullptr};
  const QTableDelta* delta{nullptr};
};

/// Visit-weighted average of several Q-tables (all must share the action
/// count); states unknown to a device contribute weight 0 for that device,
/// and with a single fresh table this is the identity. `staleness[i]` is
/// how many merge rounds ago input i was uploaded (>= 0). Each input's
/// per-entry visit weights - and the visit counts it contributes to the
/// merged table - are scaled by policy.weight(staleness[i]), so devices
/// that phone home rarely pull the aggregate less than fresh ones, but
/// their exclusive states still survive the merge (weight decays, never
/// reaches zero). A delta input gives the bit-identical result its
/// apply_delta-built table would, and is refused the same way
/// (check_delta_applies).
[[nodiscard]] QTable merge_q_tables(std::span<const MergeInput> inputs,
                                    std::span<const double> staleness,
                                    const StalenessMergePolicy& policy = {});
/// The same merge over full tables.
[[nodiscard]] QTable merge_q_tables(std::span<const QTable* const> tables,
                                    std::span<const double> staleness,
                                    const StalenessMergePolicy& policy = {});

struct CloudTimingModel {
  double comm_overhead_s{4.0};  ///< to-and-fro device<->cloud (Section IV-C)

  /// End-to-end time the device waits for cloud-trained action values.
  [[nodiscard]] double total_time_s(double cloud_compute_s) const noexcept {
    return cloud_compute_s + comm_overhead_s;
  }
};

}  // namespace nextgov::rl
