// qtable_delta.hpp - sparse Q-table wire encodings for fleet sync.
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
//
// WireQuant is the opt-in lossy sibling: full-table encodings whose value
// lanes are narrowed to IEEE half floats (f16) or per-state affine 8-bit
// codes (q8). Keys, visit counts and tried masks stay exact; only Q values
// lose precision, which the abl_quantization bench measures (size vs
// deployed reward/power) rather than bit-gates.
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

/// Reconstructs the sender's table: apply_delta(base, *try_make_delta(base,
/// next)) == next bit-exactly (operator== and serialized bytes). Throws
/// SerializeError when the delta's base guards do not match `base`.
[[nodiscard]] QTable apply_delta(const QTable& base, const QTableDelta& delta);

/// Value-lane precision of a quantized full-table wire encoding.
enum class WireQuant : std::uint8_t {
  kF32 = 0,  ///< exact: round-trips bit-identically (same lanes as serialize)
  kF16 = 1,  ///< IEEE half, round-to-nearest-even: 2 bytes/value
  kQ8 = 2,   ///< per-state affine min/max + 1-byte codes
};

/// f32 -> IEEE 754 half bits, round-to-nearest-even, with the usual
/// overflow-to-inf / subnormal / NaN handling.
[[nodiscard]] std::uint16_t f32_to_f16(float v) noexcept;
/// IEEE 754 half bits -> f32 (exact: every f16 value is representable).
[[nodiscard]] float f16_to_f32(std::uint16_t h) noexcept;

/// Full-table wire encoding with `quant` value lanes. Keys, visit counts,
/// tried masks and the header stay exact for every mode.
void serialize_quantized(const QTable& table, WireQuant quant, ByteWriter& out);
/// Decodes any serialize_quantized() stream (the mode tag travels in the
/// payload). kF32 round-trips bit-identically; kF16/kQ8 reconstruct the
/// dequantized values.
[[nodiscard]] QTable deserialize_quantized(ByteReader& in);

}  // namespace nextgov::rl
