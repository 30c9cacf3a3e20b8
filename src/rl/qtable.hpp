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
// Storage layout: the rows are dense, in insertion order - a key array,
// visit and tried-mask lanes and row-major Q rows (q[row * actions + a]) -
// and an open-addressing index of u32 row numbers (linear probing,
// power-of-two capacity, growth at 3/4 load) finds a key's row. Growth
// rebuilds only the index; a row's number never changes. There is no
// per-entry allocation, and the table never erases a state, so probe chains
// are tombstone-free and a lookup terminates at the first empty index slot.
//
// Key order is what every consumer of a whole table walks in: the
// canonical serialize(), the federated merge and the delta encoder. The
// table keeps a sorted prefix - rows [0, sorted_prefix_) are in increasing
// key order, and an insert above the last key extends it - so a key-order
// walk scans that prefix and sorts only the rows after it. Tables built in
// key order (deserialize(), the merge output, a warm start, and copies of
// these) have no such tail; a table trained or delta-decoded from one adds
// only the states it newly visited.
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
  [[nodiscard]] std::size_t state_count() const noexcept { return keys_.size(); }

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

  /// Visit bookkeeping (used for federated weighting and diagnostics).
  void record_visit(StateKey s);
  /// Bulk visit accounting (used by the federated merge).
  void add_visits(StateKey s, std::uint64_t n);
  [[nodiscard]] std::uint64_t visits(StateKey s) const noexcept;
  [[nodiscard]] std::uint64_t total_visits() const noexcept { return total_visits_; }

  /// Whether the state has a stored entry.
  [[nodiscard]] bool contains(StateKey s) const noexcept;

  /// Raw entry write used by the delta/wire codecs (rl/qtable_delta.hpp):
  /// installs the exact visit count, tried mask and per-action values for a
  /// state - no set_q bookkeeping, so untried lanes stay untried.
  /// total_visits is adjusted by the visit-count difference. `q` must hold
  /// action_count() values.
  void install_entry(StateKey s, std::uint64_t visits, std::uint32_t tried,
                     std::span<const float> q);

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
    return 32 + keys_.size() * (20 + 4 * actions_);
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

  /// Read-only view of one stored state for iteration.
  class EntryView {
   public:
    [[nodiscard]] StateKey key() const noexcept { return key_; }
    [[nodiscard]] std::uint64_t visits() const noexcept { return visits_; }
    [[nodiscard]] std::uint32_t tried() const noexcept { return tried_; }
    [[nodiscard]] float q(std::size_t a) const noexcept { return row_[a]; }

   private:
    friend class QTable;
    EntryView(StateKey key, std::uint64_t visits, std::uint32_t tried, const float* row) noexcept
        : key_{key}, visits_{visits}, tried_{tried}, row_{row} {}
    StateKey key_;
    std::uint64_t visits_;
    std::uint32_t tried_;
    const float* row_;
  };

  /// Forward walk over the stored states in increasing key order: the
  /// sorted prefix interleaved with the sorted tail (see the layout notes
  /// above). for_each_entry is one such walk; the federated merge advances
  /// one per input table side by side. The table must outlive the cursor
  /// and stay unchanged while it walks.
  class KeyOrderCursor {
   public:
    explicit KeyOrderCursor(const QTable& table);

    [[nodiscard]] bool done() const noexcept { return row_ == kNoRow; }
    [[nodiscard]] StateKey key() const noexcept { return table_->keys_[row_]; }
    [[nodiscard]] EntryView entry() const noexcept { return table_->entry(row_); }
    void next() noexcept;

   private:
    /// Moves row_ to the smaller of the next prefix row and the next tail
    /// row (keys are unique, so there are no ties).
    void settle() noexcept;

    const QTable* table_;
    std::vector<std::pair<StateKey, std::uint32_t>> tail_;  ///< (key, row), sorted by key
    std::size_t prefix_at_{0};
    std::size_t tail_at_{0};
    std::size_t row_{kNoRow};
  };

  /// Order-stable iteration for merging/inspection: entries are visited
  /// sorted by state key, never in insertion or hash order, so callers
  /// cannot accidentally depend on insertion history (the bug class the old
  /// `entries()` unordered_map accessor made possible).
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (KeyOrderCursor c{*this}; !c.done(); c.next()) fn(c.entry());
  }

 private:
  // The quantized wire decoder (rl/qtable_delta.hpp) restores total_visits
  // from its header instead of re-summing entries, matching deserialize().
  friend QTable deserialize_quantized(ByteReader& in);
  // The delta encoder walks `next`'s rows in storage order and looks each
  // key up in the base, then sorts only the changed rows.
  friend std::optional<QTableDelta> try_make_delta(const QTable& base, const QTable& next);

  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);
  /// An index slot that holds no row.
  static constexpr std::uint32_t kEmptySlot = ~std::uint32_t{0};

  [[nodiscard]] EntryView entry(std::size_t row) const noexcept {
    return EntryView{keys_[row], visits_[row], tried_[row], q_.data() + row * actions_};
  }
  /// Row holding `s`, or kNoRow.
  [[nodiscard]] std::size_t find_row(StateKey s) const noexcept;
  /// Row holding `s`, appending one (and growing the index) if absent.
  std::size_t insert_row(StateKey s);
  /// Room for `n` rows without growing the row lanes or the index.
  void reserve_rows(std::size_t n);
  /// Doubles the index (or allocates the first one) and re-inserts every row.
  void grow_index();
  /// (key, row) of the rows after the sorted prefix, sorted by key.
  [[nodiscard]] std::vector<std::pair<StateKey, std::uint32_t>> sorted_tail() const;

  std::size_t actions_;
  double default_q_{0.0};
  std::uint64_t total_visits_{0};
  std::vector<StateKey> keys_;
  std::vector<std::uint64_t> visits_;
  std::vector<std::uint32_t> tried_;
  /// Row-major: q_[row * actions_ + a]. Every consumer - the decision
  /// scans (max_q/best_action), the learning update, merge, serialize -
  /// reads one state's whole action row, so keeping the row contiguous
  /// makes each of those a single cache line instead of `actions_` strided
  /// misses (perfbench times these reads end to end: lookups in
  /// phone_deploy, updates in train_eval_sweep).
  std::vector<float> q_;
  /// Rows [0, sorted_prefix_) are in strictly increasing key order.
  std::size_t sorted_prefix_{0};
  /// Open-addressing index: row number or kEmptySlot; power-of-two size,
  /// empty until the first insert.
  std::vector<std::uint32_t> index_;
};

}  // namespace nextgov::rl
