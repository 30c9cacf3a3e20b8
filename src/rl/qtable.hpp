// qtable.hpp - sparse tabular action-value storage.
//
// The Next state space (3 frequency indices x 2 quantized FPS values x
// quantized power and two temperatures, Section IV-B) has ~10^8 nominal
// states but a session only visits a tiny manifold, so the table is a flat
// open-addressing hash table keyed by a packed 64-bit state index. Per-state
// visit counts support the federated averaging of Section IV-C. "The Q-table
// (action-value) results are stored on the memory so that later when the
// application is executed again the agent is able to refer to the Q-table":
// save()/load() provide that per-app persistence.
//
// Storage layout: one contiguous key array plus structure-of-arrays value
// lanes (q[action][slot], visits[slot], tried[slot]) with linear probing and
// power-of-two growth. There is no per-entry allocation: a lookup is one
// probe over the key array plus a strided lane load, instead of the
// node-pointer chase + per-entry vector<float> indirection of the previous
// unordered_map backend. The table never erases individual states
// (clear() wipes everything), so probe chains are tombstone-free and lookups
// terminate at the first empty slot.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.hpp"

namespace nextgov::rl {

using StateKey = std::uint64_t;

struct QTableDelta;  // rl/qtable_delta.hpp

/// Hash for packed state keys. libstdc++'s std::hash<uint64_t> is the
/// identity, which clusters the packed bit-fields into few buckets; one
/// round of SplitMix64/MurmurHash3 finalization mixes every input bit into
/// every output bit at ~3 ns. Training hits the table twice per decision,
/// so this (plus the flat probe sequence it seeds) is the QTable fast path.
struct StateKeyHash {
  [[nodiscard]] std::size_t operator()(StateKey k) const noexcept {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return static_cast<std::size_t>(k);
  }
};

class QTable {
 public:
  /// `default_q` is the value new entries start from. A value above the
  /// maximum achievable return ("optimistic initialization") makes the
  /// learner systematically try every action in every visited state, which
  /// is what lets Next converge within the paper's minutes-scale training
  /// budget. Persistence stores it, so a checkpointed half-trained table
  /// resumes with the same optimism for states it has not visited yet.
  explicit QTable(std::size_t action_count, double default_q = 0.0);

  [[nodiscard]] std::size_t action_count() const noexcept { return actions_; }
  /// Number of distinct states ever touched.
  [[nodiscard]] std::size_t state_count() const noexcept { return size_; }

  [[nodiscard]] double default_q() const noexcept { return default_q_; }

  /// Q(s, a); default_q for never-visited entries.
  [[nodiscard]] double q(StateKey s, std::size_t a) const noexcept;
  /// Mutable access; creates the state entry on demand.
  void set_q(StateKey s, std::size_t a, double value);

  /// max_a Q(s, a); default_q for unknown states.
  [[nodiscard]] double max_q(StateKey s) const noexcept;
  /// argmax_a Q(s, a); ties break to the lowest action index, unknown
  /// states return `fallback`.
  [[nodiscard]] std::size_t best_action(StateKey s, std::size_t fallback = 0) const noexcept;

  /// argmax over actions that have actually been updated at least once;
  /// untried actions still carry the optimistic default and must not win
  /// greedy *deployment* decisions. Returns `fallback` when the state is
  /// unknown or nothing was tried.
  [[nodiscard]] std::size_t best_tried_action(StateKey s,
                                              std::size_t fallback = 0) const noexcept;

  /// Visit bookkeeping (used for federated weighting and diagnostics).
  void record_visit(StateKey s);
  /// Bulk visit accounting (used by the federated merge).
  void add_visits(StateKey s, std::uint64_t n);
  [[nodiscard]] std::uint64_t visits(StateKey s) const noexcept;
  [[nodiscard]] std::uint64_t total_visits() const noexcept { return total_visits_; }

  /// Whether the state has a stored entry.
  [[nodiscard]] bool contains(StateKey s) const noexcept;
  /// Bitmask of actions updated at least once; 0 for unknown states.
  [[nodiscard]] std::uint32_t tried_mask(StateKey s) const noexcept;

  /// Raw entry write used by the delta/wire codecs (rl/qtable_delta.hpp):
  /// installs the exact visit count, tried mask and per-action values for a
  /// state - no set_q bookkeeping, so untried lanes stay untried.
  /// total_visits is adjusted by the visit-count difference. `q` must hold
  /// action_count() values.
  void install_entry(StateKey s, std::uint64_t visits, std::uint32_t tried,
                     std::span<const float> q);

  void clear();

  /// Exact-state equality: action count, default_q, every entry's visit
  /// count, tried mask and action values (compared by IEEE bit pattern, so
  /// even a one-ulp drift fails) and the visit totals. This is the
  /// predicate behind the snapshot round-trip and crash/resume tests -
  /// "resumed training equals uninterrupted training" is checked against
  /// table identity, not a fingerprint.
  [[nodiscard]] bool operator==(const QTable& other) const noexcept;

  /// Canonical binary encoding into a snapshot payload: entries are
  /// emitted sorted by state key, so two tables that compare == always
  /// serialize to identical bytes regardless of insertion history. `out`
  /// grows by exactly serialized_size() bytes, reserved in one step.
  void serialize(ByteWriter& out) const;
  /// Bytes serialize() appends: a 32-byte header, then per state its key,
  /// visit count, tried mask and one f32 per action.
  [[nodiscard]] std::size_t serialized_size() const noexcept {
    return 32 + size_ * (20 + 4 * actions_);
  }
  /// Decodes what serialize() wrote. Throws SerializeError on truncation
  /// or structurally impossible values.
  [[nodiscard]] static QTable deserialize(ByteReader& in);

  /// Binary persistence through the common snapshot container
  /// (common/serialize.hpp: magic, format version, CRC32 over the
  /// payload). Throws IoError / SerializeError with a descriptive message
  /// on unreadable, corrupt, truncated or version-incompatible files.
  void save(const std::string& path) const;
  [[nodiscard]] static QTable load(const std::string& path);

  /// Read-only view of one stored state for iteration. Action values are
  /// exposed through q(a) rather than a span so the view stays valid even
  /// if the backing layout changes stride again.
  class EntryView {
   public:
    [[nodiscard]] StateKey key() const noexcept { return key_; }
    [[nodiscard]] std::uint64_t visits() const noexcept { return visits_; }
    [[nodiscard]] std::uint32_t tried() const noexcept { return tried_; }
    [[nodiscard]] float q(std::size_t a) const noexcept { return lane_[a * stride_]; }

   private:
    friend class QTable;
    EntryView(StateKey key, std::uint64_t visits, std::uint32_t tried, const float* lane,
              std::size_t stride) noexcept
        : key_{key}, visits_{visits}, tried_{tried}, lane_{lane}, stride_{stride} {}
    StateKey key_;
    std::uint64_t visits_;
    std::uint32_t tried_;
    const float* lane_;
    std::size_t stride_;
  };

  /// Order-stable iteration for merging/inspection: entries are visited
  /// sorted by state key, never in probe/hash order, so callers cannot
  /// accidentally depend on insertion history (the bug class the old
  /// `entries()` unordered_map accessor made possible).
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (const auto& [key, slot] : sorted_slots()) {
      fn(EntryView{key, visits_[slot], tried_[slot], q_.data() + slot * actions_, 1});
    }
  }

 private:
  // The quantized wire decoder (rl/qtable_delta.hpp) restores total_visits
  // from its header instead of re-summing entries, matching deserialize().
  friend QTable deserialize_quantized(ByteReader& in);
  // The delta encoder walks `next` in slot order and probes the base once
  // per state, then sorts only the changed rows.
  friend std::optional<QTableDelta> try_make_delta(const QTable& base, const QTable& next);

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  [[nodiscard]] std::size_t initial_capacity() const noexcept;
  /// Occupied slot holding `s`, or kNoSlot.
  [[nodiscard]] std::size_t find_slot(StateKey s) const noexcept;
  /// Slot holding `s`, inserting (and growing) if absent.
  std::size_t insert_slot(StateKey s);
  /// Ensure capacity for `n` states without exceeding the max load factor.
  void reserve_states(std::size_t n);
  void grow();
  /// (key, slot) of every stored state, sorted by key.
  [[nodiscard]] std::vector<std::pair<StateKey, std::uint32_t>> sorted_slots() const;

  std::size_t actions_;
  double default_q_{0.0};
  std::uint64_t total_visits_{0};
  std::size_t size_{0};
  std::size_t capacity_{0};  ///< power of two; 0 until the first insert
  std::vector<StateKey> keys_;
  std::vector<std::uint8_t> used_;
  /// Slot-major: q_[slot * actions_ + a]. Every consumer - the decision
  /// scans (max_q/best_action), the learning update, merge, serialize -
  /// reads one state's whole action row, so keeping the row contiguous
  /// makes each of those a single cache line instead of `actions_` strided
  /// misses (perfbench times these reads end to end: lookups in
  /// phone_deploy, updates in train_eval_sweep).
  std::vector<float> q_;
  std::vector<std::uint64_t> visits_;
  std::vector<std::uint32_t> tried_;
};

}  // namespace nextgov::rl
