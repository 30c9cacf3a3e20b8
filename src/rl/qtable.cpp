#include "rl/qtable.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "common/error.hpp"

namespace nextgov::rl {

namespace {
/// Section name inside the snapshot container used by save()/load().
constexpr const char* kQTableSection = "qtable";

/// A session typically visits a few thousand quantized states (Fig. 6
/// reports state counts in this range); the first insert sizes the index
/// for this many states so online training never rebuilds it. Allocation is
/// lazy: a default-constructed table owns no arrays, which keeps the many
/// empty-table copies in the fleet paths free.
constexpr std::size_t kInitialIndexSlots = 4096;
}  // namespace

QTable::QTable(std::size_t action_count, double default_q)
    : actions_{action_count}, default_q_{default_q} {
  require(action_count > 0, "QTable needs at least one action");
}

std::size_t QTable::find_row(StateKey s) const noexcept {
  if (index_.empty()) return kNoRow;
  const std::size_t mask = index_.size() - 1;
  std::size_t i = StateKeyHash{}(s) & mask;
  // Load stays below 3/4 and nothing is ever erased, so the probe chain is
  // tombstone-free and always terminates at an empty slot.
  while (index_[i] != kEmptySlot) {
    if (keys_[index_[i]] == s) return index_[i];
    i = (i + 1) & mask;
  }
  return kNoRow;
}

std::size_t QTable::insert_row(StateKey s) {
  const std::size_t row = keys_.size();
  if (4 * (row + 1) > 3 * index_.size()) grow_index();
  const std::size_t mask = index_.size() - 1;
  std::size_t i = StateKeyHash{}(s) & mask;
  while (index_[i] != kEmptySlot) {
    if (keys_[index_[i]] == s) return index_[i];
    i = (i + 1) & mask;
  }
  require(row < kEmptySlot, "QTable: too many states for a 32-bit row index");
  index_[i] = static_cast<std::uint32_t>(row);
  if (sorted_prefix_ == row && (row == 0 || s > keys_.back())) ++sorted_prefix_;
  keys_.push_back(s);
  visits_.push_back(0);
  tried_.push_back(0);
  q_.resize(q_.size() + actions_, static_cast<float>(default_q_));
  return row;
}

void QTable::reserve_rows(std::size_t n) {
  keys_.reserve(n);
  visits_.reserve(n);
  tried_.reserve(n);
  q_.reserve(n * actions_);
  while (4 * n > 3 * index_.size()) grow_index();
}

void QTable::grow_index() {
  index_.assign(index_.empty() ? kInitialIndexSlots : 2 * index_.size(), kEmptySlot);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t row = 0; row < keys_.size(); ++row) {
    std::size_t i = StateKeyHash{}(keys_[row]) & mask;
    while (index_[i] != kEmptySlot) i = (i + 1) & mask;
    index_[i] = static_cast<std::uint32_t>(row);
  }
}

double QTable::q(StateKey s, std::size_t a) const noexcept {
  NEXTGOV_ASSERT(a < actions_);
  const std::size_t row = find_row(s);
  return row == kNoRow ? default_q_ : static_cast<double>(q_[row * actions_ + a]);
}

void QTable::set_q(StateKey s, std::size_t a, double value) {
  NEXTGOV_ASSERT(a < actions_);
  const std::size_t row = insert_row(s);
  q_[row * actions_ + a] = static_cast<float>(value);
  if (a < 32) tried_[row] |= (1u << a);
}

double QTable::max_q(StateKey s) const noexcept {
  const std::size_t row = find_row(s);
  if (row == kNoRow) return default_q_;
  float best = q_[row * actions_];
  for (std::size_t a = 1; a < actions_; ++a) {
    const float v = q_[row * actions_ + a];
    best = v > best ? v : best;
  }
  return static_cast<double>(best);
}

std::size_t QTable::best_action(StateKey s, std::size_t fallback) const noexcept {
  const std::size_t row = find_row(s);
  if (row == kNoRow) return fallback;
  std::size_t best = 0;
  for (std::size_t a = 1; a < actions_; ++a) {
    if (q_[row * actions_ + a] > q_[row * actions_ + best]) best = a;
  }
  return best;
}

void QTable::record_visit(StateKey s) {
  const std::size_t row = insert_row(s);
  ++visits_[row];
  ++total_visits_;
}

void QTable::add_visits(StateKey s, std::uint64_t n) {
  const std::size_t row = insert_row(s);
  visits_[row] += n;
  total_visits_ += n;
}

std::uint64_t QTable::visits(StateKey s) const noexcept {
  const std::size_t row = find_row(s);
  return row == kNoRow ? 0 : visits_[row];
}

bool QTable::contains(StateKey s) const noexcept { return find_row(s) != kNoRow; }

void QTable::install_entry(StateKey s, std::uint64_t visits, std::uint32_t tried,
                           std::span<const float> q) {
  NEXTGOV_ASSERT(q.size() == actions_);
  const std::size_t row = insert_row(s);
  total_visits_ += visits - visits_[row];  // wraps correctly when shrinking
  visits_[row] = visits;
  tried_[row] = tried;
  for (std::size_t a = 0; a < actions_; ++a) q_[row * actions_ + a] = q[a];
}

bool QTable::operator==(const QTable& other) const noexcept {
  if (actions_ != other.actions_ || total_visits_ != other.total_visits_ ||
      keys_.size() != other.keys_.size() ||
      std::bit_cast<std::uint64_t>(default_q_) != std::bit_cast<std::uint64_t>(other.default_q_)) {
    return false;
  }
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    const std::size_t j = other.find_row(keys_[i]);
    if (j == kNoRow) return false;
    if (visits_[i] != other.visits_[j] || tried_[i] != other.tried_[j]) return false;
    for (std::size_t a = 0; a < actions_; ++a) {
      if (std::bit_cast<std::uint32_t>(q_[i * actions_ + a]) !=
          std::bit_cast<std::uint32_t>(other.q_[j * actions_ + a])) {
        return false;
      }
    }
  }
  return true;
}

std::vector<std::pair<StateKey, std::uint32_t>> QTable::sorted_tail() const {
  using Entry = std::pair<StateKey, std::uint32_t>;
  std::vector<Entry> tail;
  if (sorted_prefix_ == keys_.size()) return tail;
  tail.reserve(keys_.size() - sorted_prefix_);
  StateKey varying = 0;  // bits in which some key differs from the first
  for (std::size_t row = sorted_prefix_; row < keys_.size(); ++row) {
    tail.emplace_back(keys_[row], static_cast<std::uint32_t>(row));
    varying |= keys_[row] ^ tail.front().first;
  }
  if (varying == 0) return tail;  // a single row
  // LSD radix sort over the key bytes that vary: a few linear passes where a
  // comparison sort mispredicts a branch per compare (a table trained from
  // scratch is all tail). Packed state keys are mixed-radix and rarely span
  // more than four bytes, so most passes skip.
  std::vector<Entry> scratch(tail.size());
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xFFu) == 0) continue;
    std::array<std::size_t, 256> start{};
    for (const Entry& e : tail) ++start[(e.first >> shift) & 0xFFu];
    std::size_t sum = 0;
    for (std::size_t& s : start) sum += std::exchange(s, sum);
    for (const Entry& e : tail) scratch[start[(e.first >> shift) & 0xFFu]++] = e;
    tail.swap(scratch);
  }
  return tail;
}

QTable::KeyOrderCursor::KeyOrderCursor(const QTable& table)
    : table_{&table}, tail_{table.sorted_tail()} {
  settle();
}

void QTable::KeyOrderCursor::next() noexcept {
  if (row_ < table_->sorted_prefix_) {
    ++prefix_at_;
  } else {
    ++tail_at_;
  }
  settle();
}

void QTable::KeyOrderCursor::settle() noexcept {
  const bool prefix_left = prefix_at_ < table_->sorted_prefix_;
  const bool tail_left = tail_at_ < tail_.size();
  if (tail_left && (!prefix_left || tail_[tail_at_].first < table_->keys_[prefix_at_])) {
    row_ = tail_[tail_at_].second;
  } else {
    row_ = prefix_left ? prefix_at_ : kNoRow;
  }
}

void QTable::serialize(ByteWriter& out) const {
  out.reserve(serialized_size());
  out.u64(static_cast<std::uint64_t>(actions_));
  out.f64(default_q_);
  out.u64(total_visits_);
  out.u64(static_cast<std::uint64_t>(keys_.size()));
  // Canonical order: sorted by state key. Insertion order depends on the
  // table's history, which must not leak into the snapshot bytes
  // (resume-equality tests compare serialized fleets byte-for-byte). All
  // rows go into one append, filled in place.
  std::uint8_t* at = out.append(serialized_size() - 32).data();
  for (KeyOrderCursor c{*this}; !c.done(); c.next()) {
    const EntryView e = c.entry();
    at = store_le(at, e.key());
    at = store_le(at, e.visits());
    at = store_le(at, e.tried());
    at = store_f32s(at, {e.row_, actions_});
  }
}

QTable QTable::deserialize(ByteReader& in) {
  const std::uint64_t actions = in.u64();
  if (actions == 0 || actions > 4096) {
    in.fail("corrupt Q-table header: implausible action count " + std::to_string(actions));
  }
  const double default_q = in.f64();
  const std::uint64_t total_visits = in.u64();
  // A state is its key, visit count, tried mask and one f32 per action.
  const std::size_t states =
      in.bounded_count(in.u64(), 20 + 4 * actions, "corrupt Q-table header: state count");
  QTable t{static_cast<std::size_t>(actions), default_q};
  t.total_visits_ = total_visits;
  if (states > 0) t.reserve_rows(states);
  for (std::size_t i = 0; i < states; ++i) {
    // insert_row hands back the existing row for a key seen before.
    const std::size_t row = t.insert_row(in.u64());
    if (row != i) in.fail("corrupt Q-table payload: duplicate state key");
    t.visits_[row] = in.u64();
    t.tried_[row] = in.u32();
    for (std::size_t a = 0; a < t.actions_; ++a) {
      t.q_[row * t.actions_ + a] = in.f32();
    }
  }
  return t;
}

void QTable::save(const std::string& path) const {
  SnapshotWriter snapshot;
  serialize(snapshot.section(kQTableSection));
  snapshot.write_file(path);
}

QTable QTable::load(const std::string& path) {
  const SnapshotReader snapshot = SnapshotReader::from_file(path);
  ByteReader in = snapshot.section(kQTableSection);
  QTable t = deserialize(in);
  if (!in.done()) in.fail("trailing bytes after the Q-table payload");
  return t;
}

}  // namespace nextgov::rl
