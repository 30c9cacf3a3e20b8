// qtable_delta.hpp - sparse Q-table wire encoding for fleet sync.
//
// A device that re-uploads its whole Q-table every round resends mostly
// unchanged bytes: between two syncs a session touches only the states it
// actually visited, a tiny slice of the table it downloaded. QTableDelta
// encodes exactly that slice - the states whose visit count, tried mask or
// any Q bit pattern changed since the last accepted sync - against a base
// table both ends of the wire already share. Applying the delta to the base
// reconstructs the sender's table *bit-exactly*, so a delta upload feeds the
// staleness-weighted federated merge with byte-identical input and the whole
// fleet trajectory is unchanged (pinned by the delta-vs-full equivalence
// tests). The encoding travels inside the same CRC-guarded snapshot
// container as full uploads, so corruption detection is identical.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/serialize.hpp"
#include "rl/qtable.hpp"

namespace nextgov::rl {

/// Sparse update of one table against a shared base. A change carries the
/// *absolute* new tried mask and Q lanes (floats are not deltas - summing
/// rounded floats would drift) but a *signed* visit delta, because a
/// staleness-discounted merge can lower a state's visit count.
struct QTableDelta {
  std::size_t action_count{0};
  double default_q{0.0};
  /// Base-table guards: the receiver refuses to apply a delta to a base
  /// with a different shape than the one the sender encoded against.
  std::uint64_t base_states{0};
  std::uint64_t base_total_visits{0};

  struct Change {
    StateKey key{0};
    std::int64_t visit_delta{0};
    std::uint32_t tried{0};
  };
  std::vector<Change> changes;  ///< sorted by key (canonical encoding order)
  /// Every change's absolute Q values in one flat array: change i's row is
  /// q[i * action_count, (i + 1) * action_count). One array, not one per
  /// change, so a delta costs the same few allocations whatever its size.
  std::vector<float> q;

  /// Change i's Q row.
  [[nodiscard]] std::span<const float> row(std::size_t i) const noexcept {
    return {q.data() + i * action_count, action_count};
  }

  /// Canonical binary encoding (sorted changes -> equal deltas give equal
  /// bytes). Same ByteWriter conventions as QTable::serialize.
  void serialize(ByteWriter& out) const;
  /// Bytes serialize() appends.
  [[nodiscard]] std::size_t serialized_size() const noexcept {
    return 40 + changes.size() * (20 + 4 * action_count);
  }
  /// Throws SerializeError on truncation or structurally impossible values.
  [[nodiscard]] static QTableDelta deserialize(ByteReader& in);
};

/// Encodes `next` as a sparse delta against `base`. Returns nullopt when
/// `next` is not a superset evolution of `base` (mismatched action count or
/// default_q, or a base state missing from `next`) - callers fall back to a
/// full upload. An empty `changes` vector is a valid result (nothing moved).
/// One pass over `next`'s rows in storage order, with a base lookup only
/// where the two tables' rows diverge; only the changed rows are sorted.
[[nodiscard]] std::optional<QTableDelta> try_make_delta(const QTable& base, const QTable& next);

/// Throws SerializeError unless `delta` applies to `base`: its base-table
/// guards match `base`, and it holds one Q row per change. apply_delta
/// checks exactly this before it installs anything; a reader that keeps the
/// delta instead of rebuilding the table refuses the same inputs with it.
void check_delta_applies(const QTable& base, const QTableDelta& delta);

/// Reconstructs the sender's table: apply_delta(base, *try_make_delta(base,
/// next)) == next bit-exactly (operator== and serialized bytes). Throws
/// SerializeError as check_delta_applies does.
[[nodiscard]] QTable apply_delta(const QTable& base, const QTableDelta& delta);

}  // namespace nextgov::rl
