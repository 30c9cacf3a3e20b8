#include "rl/qtable_delta.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

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
  out.reserve(40 + changes.size() * (20 + 4 * action_count));
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

QTable apply_delta(const QTable& base, const QTableDelta& delta) {
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
  QTable out = base;
  for (std::size_t i = 0; i < delta.changes.size(); ++i) {
    const QTableDelta::Change& c = delta.changes[i];
    const std::uint64_t visits =
        out.visits(c.key) + static_cast<std::uint64_t>(c.visit_delta);
    out.install_entry(c.key, visits, c.tried, delta.row(i));
  }
  return out;
}

std::uint16_t f32_to_f16(float v) noexcept {
  const std::uint32_t x = std::bit_cast<std::uint32_t>(v);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  std::uint32_t mant = x & 0x007fffffu;
  const std::int32_t exp = static_cast<std::int32_t>((x >> 23) & 0xffu);
  if (exp == 0xff) {  // inf / NaN (keep NaN-ness with a set mantissa bit)
    return static_cast<std::uint16_t>(sign | 0x7c00u | (mant != 0 ? 0x200u : 0u));
  }
  const std::int32_t e = exp - 127 + 15;
  if (e >= 0x1f) return static_cast<std::uint16_t>(sign | 0x7c00u);  // overflow -> inf
  mant |= 0x00800000u;                                               // implicit leading one
  if (e <= 0) {
    if (e < -10) return static_cast<std::uint16_t>(sign);  // underflow -> signed zero
    // Subnormal result: shift the 24-bit mantissa down with round-to-
    // nearest-even; a round-up into the smallest normal carries cleanly.
    const std::uint32_t shift = static_cast<std::uint32_t>(14 - e);
    const std::uint32_t bias = (1u << (shift - 1)) - 1 + ((mant >> shift) & 1u);
    return static_cast<std::uint16_t>(sign | ((mant + bias) >> shift));
  }
  // Normal result: 23 -> 10 mantissa bits, round-to-nearest-even; mantissa
  // overflow carries into the exponent (up to and including inf) because the
  // fields are combined by addition.
  const std::uint32_t bias = 0xfffu + ((mant >> 13) & 1u);
  mant = (mant & 0x007fffffu) + bias;
  return static_cast<std::uint16_t>(
      sign | ((static_cast<std::uint32_t>(e) << 10) + (mant >> 13)));
}

float f16_to_f32(std::uint16_t h) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  std::uint32_t mant = h & 0x3ffu;
  std::uint32_t out;
  if (exp == 0) {
    if (mant == 0) {
      out = sign;  // signed zero
    } else {
      // Normalize the subnormal: find the leading one.
      std::uint32_t shift = 0;
      while ((mant & 0x400u) == 0) {
        mant <<= 1;
        ++shift;
      }
      mant &= 0x3ffu;
      out = sign | ((113u - shift) << 23) | (mant << 13);
    }
  } else if (exp == 0x1f) {
    out = sign | 0x7f800000u | (mant << 13);  // inf / NaN
  } else {
    out = sign | ((exp + 112u) << 23) | (mant << 13);
  }
  return std::bit_cast<float>(out);
}

void serialize_quantized(const QTable& table, WireQuant quant, ByteWriter& out) {
  const std::size_t actions = table.action_count();
  out.u8(static_cast<std::uint8_t>(quant));
  out.u64(static_cast<std::uint64_t>(actions));
  out.f64(table.default_q());
  out.u64(table.total_visits());
  out.u64(static_cast<std::uint64_t>(table.state_count()));
  table.for_each_entry([&](const QTable::EntryView& e) {
    out.u64(e.key());
    out.u64(e.visits());
    out.u32(e.tried());
    switch (quant) {
      case WireQuant::kF32:
        for (std::size_t a = 0; a < actions; ++a) out.f32(e.q(a));
        break;
      case WireQuant::kF16:
        for (std::size_t a = 0; a < actions; ++a) out.u16(f32_to_f16(e.q(a)));
        break;
      case WireQuant::kQ8: {
        float lo = e.q(0);
        float hi = e.q(0);
        for (std::size_t a = 1; a < actions; ++a) {
          const float v = e.q(a);
          lo = v < lo ? v : lo;
          hi = v > hi ? v : hi;
        }
        out.f32(lo);
        out.f32(hi);
        const float scale = hi - lo;
        for (std::size_t a = 0; a < actions; ++a) {
          long code = 0;
          if (scale > 0.0f) {
            code = std::lround(static_cast<double>(e.q(a) - lo) * 255.0 /
                               static_cast<double>(scale));
            code = std::clamp(code, 0L, 255L);
          }
          out.u8(static_cast<std::uint8_t>(code));
        }
        break;
      }
    }
  });
}

QTable deserialize_quantized(ByteReader& in) {
  const std::uint8_t tag = in.u8();
  if (tag > static_cast<std::uint8_t>(WireQuant::kQ8)) {
    in.fail("corrupt quantized Q-table header: unknown quantization tag " + std::to_string(tag));
  }
  const WireQuant quant = static_cast<WireQuant>(tag);
  const std::uint64_t actions = in.u64();
  if (actions == 0 || actions > 4096) {
    in.fail("corrupt quantized Q-table header: implausible action count " +
            std::to_string(actions));
  }
  const double default_q = in.f64();
  const std::uint64_t total_visits = in.u64();
  // A state is its key, visit count and tried mask (20 bytes) plus its
  // row: 4 bytes per action in f32, 2 in f16, and in q8 the lo/hi pair
  // (8 bytes) and 1 byte per action.
  const std::size_t row_bytes = quant == WireQuant::kF32   ? 4 * actions
                                : quant == WireQuant::kF16 ? 2 * actions
                                                           : 8 + actions;
  const std::size_t states = in.bounded_count(in.u64(), 20 + row_bytes,
                                              "corrupt quantized Q-table header: state count");
  QTable t{static_cast<std::size_t>(actions), default_q};
  // Pre-size so the fill never rehashes mid-stream.
  if (states > 0) t.reserve_rows(states);
  std::vector<float> row(static_cast<std::size_t>(actions));
  for (std::size_t i = 0; i < states; ++i) {
    const StateKey key = in.u64();
    if (t.contains(key)) in.fail("corrupt quantized Q-table payload: duplicate state key");
    const std::uint64_t visits = in.u64();
    const std::uint32_t tried = in.u32();
    switch (quant) {
      case WireQuant::kF32:
        for (float& q : row) q = in.f32();
        break;
      case WireQuant::kF16:
        for (float& q : row) q = f16_to_f32(in.u16());
        break;
      case WireQuant::kQ8: {
        const float lo = in.f32();
        const float hi = in.f32();
        const float scale = hi - lo;
        for (float& q : row) {
          q = lo + static_cast<float>(in.u8()) * scale / 255.0f;
        }
        break;
      }
    }
    t.install_entry(key, visits, tried, row);
  }
  // Match QTable::deserialize: the header's total is authoritative (it is
  // what serialize_quantized recorded), not the re-summed entry visits.
  t.total_visits_ = total_visits;
  return t;
}

}  // namespace nextgov::rl
