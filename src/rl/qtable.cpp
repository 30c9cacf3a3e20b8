#include "rl/qtable.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace nextgov::rl {

namespace {
/// Section name inside the snapshot container used by save()/load().
constexpr const char* kQTableSection = "qtable";

/// A session typically visits a few thousand quantized states (Fig. 6
/// reports state counts in this range); the first insert allocates straight
/// at this capacity so online training never rehashes. Allocation is lazy:
/// a default-constructed table owns no slot arrays, which keeps the many
/// empty-table copies in the fleet paths free.
constexpr std::size_t kInitialStateCapacity = 4096;
}  // namespace

QTable::QTable(std::size_t action_count, double default_q)
    : actions_{action_count}, default_q_{default_q} {
  require(action_count > 0, "QTable needs at least one action");
}

std::size_t QTable::initial_capacity() const noexcept {
  // deserialize() admits up to 4096 actions; for such fat action spaces the
  // 4096-slot slab would front a multi-MB value plane, so scale the first
  // allocation down and let power-of-two growth catch up on demand.
  return actions_ <= 64 ? kInitialStateCapacity : 64;
}

std::size_t QTable::find_slot(StateKey s) const noexcept {
  if (capacity_ == 0) return kNoSlot;
  const std::size_t mask = capacity_ - 1;
  std::size_t i = StateKeyHash{}(s) & mask;
  // Load stays below 3/4 and nothing is ever erased, so the probe chain is
  // tombstone-free and always terminates at an empty slot.
  while (used_[i]) {
    if (keys_[i] == s) return i;
    i = (i + 1) & mask;
  }
  return kNoSlot;
}

std::size_t QTable::insert_slot(StateKey s) {
  if (capacity_ == 0 || 4 * (size_ + 1) > 3 * capacity_) grow();
  const std::size_t mask = capacity_ - 1;
  std::size_t i = StateKeyHash{}(s) & mask;
  while (used_[i]) {
    if (keys_[i] == s) return i;
    i = (i + 1) & mask;
  }
  used_[i] = 1;
  keys_[i] = s;
  // visits_/tried_ of a never-claimed slot are already zero; only the Q row
  // needs the optimistic default.
  for (std::size_t a = 0; a < actions_; ++a) {
    q_[i * actions_ + a] = static_cast<float>(default_q_);
  }
  ++size_;
  return i;
}

void QTable::reserve_states(std::size_t n) {
  while (capacity_ == 0 || 4 * n > 3 * capacity_) grow();
}

void QTable::grow() {
  const std::size_t new_cap = capacity_ == 0 ? initial_capacity() : capacity_ * 2;
  std::vector<StateKey> keys(new_cap, 0);
  std::vector<std::uint8_t> used(new_cap, 0);
  std::vector<float> q(new_cap * actions_, 0.0f);
  std::vector<std::uint64_t> visits(new_cap, 0);
  std::vector<std::uint32_t> tried(new_cap, 0);
  const std::size_t mask = new_cap - 1;
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (!used_[i]) continue;
    std::size_t j = StateKeyHash{}(keys_[i]) & mask;
    while (used[j]) j = (j + 1) & mask;
    used[j] = 1;
    keys[j] = keys_[i];
    visits[j] = visits_[i];
    tried[j] = tried_[i];
    for (std::size_t a = 0; a < actions_; ++a) {
      q[j * actions_ + a] = q_[i * actions_ + a];
    }
  }
  keys_ = std::move(keys);
  used_ = std::move(used);
  q_ = std::move(q);
  visits_ = std::move(visits);
  tried_ = std::move(tried);
  capacity_ = new_cap;
}

double QTable::q(StateKey s, std::size_t a) const noexcept {
  NEXTGOV_ASSERT(a < actions_);
  const std::size_t slot = find_slot(s);
  return slot == kNoSlot ? default_q_ : static_cast<double>(q_[slot * actions_ + a]);
}

void QTable::set_q(StateKey s, std::size_t a, double value) {
  NEXTGOV_ASSERT(a < actions_);
  const std::size_t slot = insert_slot(s);
  q_[slot * actions_ + a] = static_cast<float>(value);
  if (a < 32) tried_[slot] |= (1u << a);
}

double QTable::max_q(StateKey s) const noexcept {
  const std::size_t slot = find_slot(s);
  if (slot == kNoSlot) return default_q_;
  float best = q_[slot * actions_];
  for (std::size_t a = 1; a < actions_; ++a) {
    const float v = q_[slot * actions_ + a];
    best = v > best ? v : best;
  }
  return static_cast<double>(best);
}

std::size_t QTable::best_action(StateKey s, std::size_t fallback) const noexcept {
  const std::size_t slot = find_slot(s);
  if (slot == kNoSlot) return fallback;
  std::size_t best = 0;
  for (std::size_t a = 1; a < actions_; ++a) {
    if (q_[slot * actions_ + a] > q_[slot * actions_ + best]) best = a;
  }
  return best;
}

std::size_t QTable::best_tried_action(StateKey s, std::size_t fallback) const noexcept {
  const std::size_t slot = find_slot(s);
  if (slot == kNoSlot || tried_[slot] == 0) return fallback;
  std::size_t best = fallback;
  bool found = false;
  for (std::size_t a = 0; a < actions_ && a < 32; ++a) {
    if ((tried_[slot] & (1u << a)) == 0) continue;
    if (!found || q_[slot * actions_ + a] > q_[slot * actions_ + best]) {
      best = a;
      found = true;
    }
  }
  return best;
}

void QTable::record_visit(StateKey s) {
  ++visits_[insert_slot(s)];
  ++total_visits_;
}

void QTable::add_visits(StateKey s, std::uint64_t n) {
  visits_[insert_slot(s)] += n;
  total_visits_ += n;
}

std::uint64_t QTable::visits(StateKey s) const noexcept {
  const std::size_t slot = find_slot(s);
  return slot == kNoSlot ? 0 : visits_[slot];
}

bool QTable::contains(StateKey s) const noexcept { return find_slot(s) != kNoSlot; }

std::uint32_t QTable::tried_mask(StateKey s) const noexcept {
  const std::size_t slot = find_slot(s);
  return slot == kNoSlot ? 0 : tried_[slot];
}

std::optional<QTable::EntryView> QTable::find_entry(StateKey s) const noexcept {
  const std::size_t slot = find_slot(s);
  if (slot == kNoSlot) return std::nullopt;
  return EntryView{keys_[slot], visits_[slot], tried_[slot], q_.data() + slot * actions_, 1};
}

void QTable::install_entry(StateKey s, std::uint64_t visits, std::uint32_t tried,
                           std::span<const float> q) {
  NEXTGOV_ASSERT(q.size() == actions_);
  const std::size_t slot = insert_slot(s);
  total_visits_ += visits - visits_[slot];  // wraps correctly when shrinking
  visits_[slot] = visits;
  tried_[slot] = tried;
  for (std::size_t a = 0; a < actions_; ++a) q_[slot * actions_ + a] = q[a];
}

void QTable::clear() {
  std::fill(used_.begin(), used_.end(), std::uint8_t{0});
  std::fill(visits_.begin(), visits_.end(), std::uint64_t{0});
  std::fill(tried_.begin(), tried_.end(), std::uint32_t{0});
  size_ = 0;
  total_visits_ = 0;
}

bool QTable::operator==(const QTable& other) const noexcept {
  if (actions_ != other.actions_ || total_visits_ != other.total_visits_ ||
      size_ != other.size_ ||
      std::bit_cast<std::uint64_t>(default_q_) != std::bit_cast<std::uint64_t>(other.default_q_)) {
    return false;
  }
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (!used_[i]) continue;
    const std::size_t j = other.find_slot(keys_[i]);
    if (j == kNoSlot) return false;
    if (visits_[i] != other.visits_[j] || tried_[i] != other.tried_[j]) return false;
    for (std::size_t a = 0; a < actions_; ++a) {
      if (std::bit_cast<std::uint32_t>(q_[i * actions_ + a]) !=
          std::bit_cast<std::uint32_t>(other.q_[j * other.actions_ + a])) {
        return false;
      }
    }
  }
  return true;
}

std::vector<std::uint32_t> QTable::sorted_slots() const {
  std::vector<std::uint32_t> slots;
  slots.reserve(size_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (used_[i]) slots.push_back(static_cast<std::uint32_t>(i));
  }
  std::sort(slots.begin(), slots.end(),
            [this](std::uint32_t a, std::uint32_t b) { return keys_[a] < keys_[b]; });
  return slots;
}

void QTable::serialize(ByteWriter& out) const {
  out.u64(static_cast<std::uint64_t>(actions_));
  out.f64(default_q_);
  out.u64(total_visits_);
  out.u64(static_cast<std::uint64_t>(size_));
  // Canonical order: sorted by state key. The probe order depends on
  // insertion history and capacity, which must not leak into the snapshot
  // bytes (resume-equality tests compare serialized fleets byte-for-byte).
  for (const std::uint32_t slot : sorted_slots()) {
    out.u64(keys_[slot]);
    out.u64(visits_[slot]);
    out.u32(tried_[slot]);
    for (std::size_t a = 0; a < actions_; ++a) out.f32(q_[slot * actions_ + a]);
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
  if (states > 0) t.reserve_states(states);
  for (std::size_t i = 0; i < states; ++i) {
    const StateKey key = in.u64();
    if (t.contains(key)) in.fail("corrupt Q-table payload: duplicate state key");
    const std::size_t slot = t.insert_slot(key);
    t.visits_[slot] = in.u64();
    t.tried_[slot] = in.u32();
    for (std::size_t a = 0; a < t.actions_; ++a) {
      t.q_[slot * t.actions_ + a] = in.f32();
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
