#include "rl/qtable_delta.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace nextgov::rl {

namespace {

[[nodiscard]] bool bits_equal(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

[[nodiscard]] bool bits_equal(float a, float b) noexcept {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

}  // namespace

void QTableDelta::serialize(ByteWriter& out) const {
  out.reserve(serialized_size());
  out.u64(static_cast<std::uint64_t>(action_count));
  out.f64(default_q);
  out.u64(base_states);
  out.u64(base_total_visits);
  out.u64(static_cast<std::uint64_t>(changes.size()));
  for (std::size_t i = 0; i < changes.size(); ++i) {
    out.u64(changes[i].key);
    out.i64(changes[i].visit_delta);
    out.u32(changes[i].tried);
    out.f32s(row(i));
  }
}

QTableDelta QTableDelta::deserialize(ByteReader& in) {
  QTableDelta d;
  const std::uint64_t actions = in.u64();
  if (actions == 0 || actions > 4096) {
    in.fail("corrupt Q-table delta header: implausible action count " + std::to_string(actions));
  }
  d.action_count = static_cast<std::size_t>(actions);
  d.default_q = in.f64();
  d.base_states = in.u64();
  d.base_total_visits = in.u64();
  // A change is its key, visit delta, tried mask and one f32 per action.
  const std::size_t count = in.bounded_count(in.u64(), 20 + 4 * d.action_count,
                                             "corrupt Q-table delta header: change count");
  d.changes.resize(count);
  d.q.resize(count * d.action_count);
  for (std::size_t i = 0; i < count; ++i) {
    Change& c = d.changes[i];
    c.key = in.u64();
    if (i > 0 && c.key <= d.changes[i - 1].key) {
      in.fail("corrupt Q-table delta payload: change keys not strictly increasing");
    }
    c.visit_delta = in.i64();
    c.tried = in.u32();
    for (std::size_t a = 0; a < d.action_count; ++a) d.q[i * d.action_count + a] = in.f32();
  }
  return d;
}

std::optional<QTableDelta> try_make_delta(const QTable& base, const QTable& next) {
  if (base.actions_ != next.actions_ || !bits_equal(base.default_q_, next.default_q_) ||
      base.state_count() > next.state_count()) {
    return std::nullopt;
  }
  const std::size_t actions = next.actions_;
  // One pass over `next`'s rows in storage order. A state changed when the
  // base lacks it or any of its visit count, tried mask or Q bit patterns
  // differ. A table trained from `base` is a copy of it plus appended rows,
  // so row r of both usually holds the same key and the lookup is skipped.
  struct Changed {
    StateKey key;
    std::uint32_t row;  // in `next`
    std::int64_t visit_delta;
  };
  std::vector<Changed> changed;
  std::size_t hits = 0;
  std::int64_t visit_delta_sum = 0;
  for (std::size_t r = 0; r < next.state_count(); ++r) {
    const StateKey key = next.keys_[r];
    const std::size_t b =
        r < base.state_count() && base.keys_[r] == key ? r : base.find_row(key);
    std::uint64_t base_visits = 0;
    if (b != QTable::kNoRow) {
      ++hits;
      base_visits = base.visits_[b];
      const float* bq = base.q_.data() + b * actions;
      const float* nq = next.q_.data() + r * actions;
      if (base_visits == next.visits_[r] && base.tried_[b] == next.tried_[r] &&
          std::equal(bq, bq + actions, nq, [](float x, float y) { return bits_equal(x, y); })) {
        continue;
      }
    }
    const auto visit_delta = static_cast<std::int64_t>(next.visits_[r] - base_visits);
    visit_delta_sum += visit_delta;
    changed.push_back(Changed{key, static_cast<std::uint32_t>(r), visit_delta});
  }
  // The delta can only add or modify states (the table itself never
  // erases), so every base state must have turned up in `next`.
  if (hits != base.state_count()) return std::nullopt;
  // apply_delta reconstructs total_visits by accumulating per-state diffs,
  // which only lands on the sender's exact total when the totals are
  // consistent with the entries. Every QTable mutation path maintains that
  // invariant; if a hand-decoded table ever violated it, fall back to a
  // full upload rather than ship a delta that cannot replay bit-exactly.
  const auto total_diff = static_cast<std::int64_t>(next.total_visits_ - base.total_visits_);
  if (visit_delta_sum != total_diff) return std::nullopt;

  std::sort(changed.begin(), changed.end(),
            [](const Changed& x, const Changed& y) { return x.key < y.key; });
  QTableDelta d;
  d.action_count = actions;
  d.default_q = next.default_q_;
  d.base_states = base.state_count();
  d.base_total_visits = base.total_visits_;
  d.changes.reserve(changed.size());
  d.q.resize(changed.size() * actions);
  for (std::size_t c = 0; c < changed.size(); ++c) {
    const std::size_t row = changed[c].row;
    d.changes.push_back(
        QTableDelta::Change{changed[c].key, changed[c].visit_delta, next.tried_[row]});
    std::copy_n(next.q_.data() + row * actions, actions, d.q.data() + c * actions);
  }
  return d;
}

void check_delta_applies(const QTable& base, const QTableDelta& delta) {
  if (delta.action_count != base.action_count() ||
      !bits_equal(delta.default_q, base.default_q()) ||
      delta.base_states != base.state_count() ||
      delta.base_total_visits != base.total_visits()) {
    throw SerializeError(
        "Q-table delta rejected: base-table guards do not match the table it is being "
        "applied to (sender and receiver disagree about the last accepted sync)");
  }
  if (delta.q.size() != delta.changes.size() * delta.action_count) {
    throw SerializeError("Q-table delta rejected: Q rows do not match the change count");
  }
}

QTable apply_delta(const QTable& base, const QTableDelta& delta) {
  check_delta_applies(base, delta);
  QTable out = base;
  std::size_t added = 0;
  for (const QTableDelta::Change& c : delta.changes) added += base.contains(c.key) ? 0 : 1;
  if (added > 0) out.reserve_rows(base.state_count() + added);
  for (std::size_t i = 0; i < delta.changes.size(); ++i) {
    const QTableDelta::Change& c = delta.changes[i];
    const std::uint64_t visits =
        out.visits(c.key) + static_cast<std::uint64_t>(c.visit_delta);
    out.install_entry(c.key, visits, c.tried, delta.row(i));
  }
  return out;
}

}  // namespace nextgov::rl
