// Tests for the sparse fleet-sync wire encodings (rl/qtable_delta.hpp):
// delta encode/apply bit-exactness, base-guard rejection, canonical delta
// bytes, and the quantized full-table formats (f16/q8 value lanes).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <random>
#include <string>

#include "common/serialize.hpp"
#include "rl/qtable_delta.hpp"

namespace nextgov::rl {
namespace {

std::vector<std::uint8_t> canonical_bytes(const QTable& t) {
  ByteWriter w;
  t.serialize(w);
  return w.data();
}

/// A small trained-looking table: random touched states with visits and a
/// few tried actions each.
QTable sample_table(std::uint64_t seed, std::size_t states, std::size_t actions = 6) {
  std::mt19937_64 rng{seed};
  QTable t{actions, 10.0};
  std::uniform_real_distribution<double> val{-5.0, 5.0};
  for (std::size_t i = 0; i < states; ++i) {
    const StateKey key = rng();
    const std::size_t touched = 1 + rng() % actions;
    for (std::size_t j = 0; j < touched; ++j) t.set_q(key, rng() % actions, val(rng));
    const std::uint64_t visits = rng() % 50;
    if (visits > 0) t.add_visits(key, visits);
  }
  return t;
}

/// Evolve `base` the way a training round does: update some existing
/// states, visit some new ones.
QTable evolve(const QTable& base, std::uint64_t seed, std::size_t new_states,
              std::size_t touched_existing) {
  std::mt19937_64 rng{seed};
  QTable next = base;
  std::uniform_real_distribution<double> val{-5.0, 5.0};
  std::vector<StateKey> keys;
  base.for_each_entry([&](const QTable::EntryView& e) { keys.push_back(e.key()); });
  for (std::size_t i = 0; i < touched_existing && !keys.empty(); ++i) {
    const StateKey key = keys[rng() % keys.size()];
    next.set_q(key, rng() % base.action_count(), val(rng));
    next.record_visit(key);
  }
  for (std::size_t i = 0; i < new_states; ++i) {
    const StateKey key = rng();
    next.set_q(key, rng() % base.action_count(), val(rng));
    next.record_visit(key);
  }
  return next;
}

TEST(QTableDelta, IdenticalTablesGiveEmptyDelta) {
  const QTable base = sample_table(1, 50);
  const auto delta = try_make_delta(base, base);
  ASSERT_TRUE(delta.has_value());
  EXPECT_TRUE(delta->changes.empty());
  EXPECT_EQ(delta->base_states, base.state_count());
  const QTable applied = apply_delta(base, *delta);
  EXPECT_TRUE(applied == base);
}

TEST(QTableDelta, ApplyReconstructsBitExactly) {
  const QTable base = sample_table(2, 80);
  const QTable next = evolve(base, 3, 25, 40);
  const auto delta = try_make_delta(base, next);
  ASSERT_TRUE(delta.has_value());
  // Only touched states travel.
  EXPECT_LT(delta->changes.size(), next.state_count());
  EXPECT_GT(delta->changes.size(), 0u);
  const QTable applied = apply_delta(base, *delta);
  EXPECT_TRUE(applied == next);
  EXPECT_EQ(canonical_bytes(applied), canonical_bytes(next));
}

TEST(QTableDelta, EmptyBaseActsAsFullUpload) {
  const QTable next = sample_table(4, 30);
  const QTable base{next.action_count(), next.default_q()};
  const auto delta = try_make_delta(base, next);
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->changes.size(), next.state_count());
  EXPECT_TRUE(apply_delta(base, *delta) == next);
}

TEST(QTableDelta, NegativeVisitDeltaRoundTrips) {
  // A staleness-discounted merge can *lower* a state's visit mass between
  // syncs, so visit deltas are signed.
  QTable base{4, 0.0};
  std::vector<float> row{1.0f, 2.0f, 3.0f, 4.0f};
  base.install_entry(7, 10, 0xfu, row);
  QTable next{4, 0.0};
  next.install_entry(7, 3, 0xfu, row);
  const auto delta = try_make_delta(base, next);
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->changes.size(), 1u);
  EXPECT_EQ(delta->changes[0].visit_delta, -7);
  EXPECT_TRUE(apply_delta(base, *delta) == next);
}

TEST(QTableDelta, NonSupersetFallsBackToFull) {
  const QTable next = sample_table(5, 20);
  // Base contains a state `next` lacks.
  QTable base = next;
  base.set_q(0xdeadbeefULL, 0, 1.0);
  EXPECT_FALSE(try_make_delta(base, next).has_value());
  // Geometry mismatches.
  EXPECT_FALSE(try_make_delta(QTable{3, 10.0}, next).has_value());
  EXPECT_FALSE(try_make_delta(QTable{next.action_count(), 0.5}, next).has_value());
}

TEST(QTableDelta, ApplyRejectsMismatchedBase) {
  const QTable base = sample_table(6, 40);
  const QTable next = evolve(base, 7, 10, 10);
  const auto delta = try_make_delta(base, next);
  ASSERT_TRUE(delta.has_value());
  QTable other = base;
  other.set_q(0x1234ULL, 0, 2.0);  // one state more than the guards claim
  EXPECT_THROW((void)apply_delta(other, *delta), SerializeError);
}

TEST(QTableDelta, SerializeRoundTripsAndIsCanonical) {
  const QTable base = sample_table(8, 60);
  const QTable next = evolve(base, 9, 15, 30);
  const auto delta = try_make_delta(base, next);
  ASSERT_TRUE(delta.has_value());
  ByteWriter w;
  delta->serialize(w);
  ByteReader in{w.data(), "delta"};
  const QTableDelta decoded = QTableDelta::deserialize(in);
  EXPECT_TRUE(in.done());
  EXPECT_TRUE(apply_delta(base, decoded) == next);
  ByteWriter w2;
  decoded.serialize(w2);
  EXPECT_EQ(w.data(), w2.data());
  // Steady-state savings: the delta wire is much smaller than the full
  // table (only 45 of the >60 states changed; perfbench's fleet_churn
  // reports the steady-state figure as sim.upload_bytes_per_round).
  ByteWriter full;
  next.serialize(full);
  EXPECT_LT(w.size(), full.size());
}

TEST(QTableDelta, DeserializeRejectsCorruptStreams) {
  const QTable base = sample_table(10, 10);
  const QTable next = evolve(base, 11, 5, 5);
  const auto delta = try_make_delta(base, next);
  ASSERT_TRUE(delta.has_value());
  ASSERT_GE(delta->changes.size(), 2u);
  // Out-of-order change keys.
  QTableDelta shuffled = *delta;
  std::swap(shuffled.changes.front(), shuffled.changes.back());
  ByteWriter w;
  shuffled.serialize(w);
  ByteReader in{w.data(), "delta"};
  EXPECT_THROW((void)QTableDelta::deserialize(in), SerializeError);
  // Implausible action count.
  ByteWriter w2;
  w2.u64(0);
  ByteReader in2{w2.data(), "delta"};
  EXPECT_THROW((void)QTableDelta::deserialize(in2), SerializeError);
  // Truncation.
  ByteWriter w3;
  delta->serialize(w3);
  std::vector<std::uint8_t> cut{w3.data().begin(), w3.data().end() - 5};
  ByteReader in3{cut, "delta"};
  EXPECT_THROW((void)QTableDelta::deserialize(in3), SerializeError);
  // A 40-byte header claiming 2^20 changes of 27 actions is refused from
  // the count alone, before anything is allocated for those changes.
  ByteWriter w4;
  w4.u64(27);        // actions
  w4.f64(0.0);       // default_q
  w4.u64(0);         // base states
  w4.u64(0);         // base total visits
  w4.u64(1u << 20);  // changes
  ByteReader in4{w4.data(), "delta"};
  try {
    (void)QTableDelta::deserialize(in4);
    ADD_FAILURE() << "hostile change count accepted";
  } catch (const SerializeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("change count 1048576"), std::string::npos) << what;
    EXPECT_EQ(what.find("truncated"), std::string::npos) << what;
  }
}

// --- f16 ---------------------------------------------------------------------

TEST(WireQuantF16, KnownConversionVectors) {
  EXPECT_EQ(f32_to_f16(0.0f), 0x0000u);
  EXPECT_EQ(f32_to_f16(-0.0f), 0x8000u);
  EXPECT_EQ(f32_to_f16(1.0f), 0x3c00u);
  EXPECT_EQ(f32_to_f16(-2.5f), 0xc100u);
  EXPECT_EQ(f32_to_f16(65504.0f), 0x7bffu);   // largest finite half
  EXPECT_EQ(f32_to_f16(65520.0f), 0x7c00u);   // rounds to +inf
  EXPECT_EQ(f32_to_f16(1e30f), 0x7c00u);      // overflow -> +inf
  EXPECT_EQ(f32_to_f16(5.9604645e-8f), 0x0001u);  // smallest subnormal
  // Exactly half the smallest subnormal: ties-to-even rounds to zero.
  EXPECT_EQ(f32_to_f16(2.9802322e-8f), 0x0000u);
  EXPECT_EQ(f32_to_f16(1.0f + 1.0f / 1024.0f), 0x3c01u);
  // Ties-to-even on the mantissa: 1 + 2^-11 sits exactly between 0x3c00
  // and 0x3c01 and must round to the even code.
  EXPECT_EQ(f32_to_f16(1.0f + 1.0f / 2048.0f), 0x3c00u);
  EXPECT_EQ(f32_to_f16(1.0f + 3.0f / 2048.0f), 0x3c02u);
  const std::uint16_t nan = f32_to_f16(std::bit_cast<float>(0x7fc00000u));
  EXPECT_EQ(nan & 0x7c00u, 0x7c00u);
  EXPECT_NE(nan & 0x03ffu, 0u);
}

TEST(WireQuantF16, EveryHalfValueRoundTripsThroughF32) {
  // f32 holds every f16 exactly, so decode->encode must be the identity for
  // all 65536 bit patterns except NaNs (payloads are canonicalized).
  for (std::uint32_t h = 0; h <= 0xffffu; ++h) {
    const std::uint16_t half = static_cast<std::uint16_t>(h);
    const bool is_nan = (half & 0x7c00u) == 0x7c00u && (half & 0x03ffu) != 0;
    if (is_nan) continue;
    EXPECT_EQ(f32_to_f16(f16_to_f32(half)), half) << "half bits 0x" << std::hex << h;
  }
}

// --- quantized table wire ----------------------------------------------------

TEST(WireQuant, F32ModeRoundTripsBitIdentically) {
  const QTable t = sample_table(12, 70);
  ByteWriter w;
  serialize_quantized(t, WireQuant::kF32, w);
  ByteReader in{w.data(), "wire"};
  const QTable back = deserialize_quantized(in);
  EXPECT_TRUE(in.done());
  EXPECT_TRUE(back == t);
  EXPECT_EQ(canonical_bytes(back), canonical_bytes(t));
}

TEST(WireQuant, LossyModesPreserveStructureAndBoundError) {
  const QTable t = sample_table(13, 70);
  for (const WireQuant quant : {WireQuant::kF16, WireQuant::kQ8}) {
    SCOPED_TRACE(static_cast<int>(quant));
    ByteWriter w;
    serialize_quantized(t, quant, w);
    ByteReader in{w.data(), "wire"};
    const QTable back = deserialize_quantized(in);
    EXPECT_TRUE(in.done());
    // Keys, visits and tried masks are exact in every mode.
    EXPECT_EQ(back.state_count(), t.state_count());
    EXPECT_EQ(back.total_visits(), t.total_visits());
    t.for_each_entry([&](const QTable::EntryView& e) {
      ASSERT_TRUE(back.contains(e.key()));
      EXPECT_EQ(back.visits(e.key()), e.visits());
      EXPECT_EQ(back.tried_mask(e.key()), e.tried());
      for (std::size_t a = 0; a < t.action_count(); ++a) {
        // Values are in [-5, 5] with a 10.0 default; q8's worst case is
        // half a code step of the 15-unit range, f16's is far smaller.
        EXPECT_NEAR(back.q(e.key(), a), static_cast<double>(e.q(a)),
                    quant == WireQuant::kF16 ? 0.01 : 0.05);
      }
    });
  }
}

TEST(WireQuant, NarrowerModesShrinkTheWire) {
  // q8 pays an 8-byte min/max header per state, so it only beats f16 when
  // the action space is wider than 8 lanes; use 16 to pin the ordering.
  const QTable t = sample_table(14, 200, 16);
  ByteWriter f32w;
  ByteWriter f16w;
  ByteWriter q8w;
  serialize_quantized(t, WireQuant::kF32, f32w);
  serialize_quantized(t, WireQuant::kF16, f16w);
  serialize_quantized(t, WireQuant::kQ8, q8w);
  EXPECT_LT(f16w.size(), f32w.size());
  EXPECT_LT(q8w.size(), f16w.size());
}

TEST(WireQuant, RejectsUnknownTagAndDuplicateKeys) {
  ByteWriter w;
  w.u8(9);
  ByteReader in{w.data(), "wire"};
  EXPECT_THROW((void)deserialize_quantized(in), SerializeError);

  ByteWriter dup;
  dup.u8(0);       // kF32
  dup.u64(1);      // actions
  dup.f64(0.0);    // default_q
  dup.u64(0);      // total visits
  dup.u64(2);      // two states...
  for (int i = 0; i < 2; ++i) {
    dup.u64(42);   // ...with the same key
    dup.u64(0);
    dup.u32(0);
    dup.f32(0.0f);
  }
  ByteReader in2{dup.data(), "wire"};
  EXPECT_THROW((void)deserialize_quantized(in2), SerializeError);

  // Headers claiming 2^20 states of 27 actions are refused from the count
  // alone in every mode, before anything is allocated for those states.
  for (const WireQuant quant : {WireQuant::kF32, WireQuant::kF16, WireQuant::kQ8}) {
    ByteWriter hostile;
    hostile.u8(static_cast<std::uint8_t>(quant));
    hostile.u64(27);        // actions
    hostile.f64(0.0);       // default_q
    hostile.u64(0);         // total visits
    hostile.u64(1u << 20);  // states
    ByteReader in3{hostile.data(), "wire"};
    try {
      (void)deserialize_quantized(in3);
      ADD_FAILURE() << "hostile state count accepted";
    } catch (const SerializeError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("state count 1048576"), std::string::npos) << what;
      EXPECT_EQ(what.find("truncated"), std::string::npos) << what;
    }
  }
}

TEST(WireQuant, F32ModeStaysExactPastTableGrowth) {
  // Same contract as F32ModeRoundTripsBitIdentically, but on a table large
  // enough that both ends of the codec cross the open-addressing growth
  // threshold (the small-table version once passed while grown tables
  // scrambled their rows in grow()'s rehash copy).
  QTable t{16, 25.0};
  for (StateKey s = 1; s <= 9000; ++s) {
    t.set_q(s * 0x9e3779b97f4a7c15ull, s % 16, 0.25 * static_cast<double>(s % 1000));
    t.add_visits(s * 0x9e3779b97f4a7c15ull, s % 3);
  }
  ASSERT_EQ(t.state_count(), 9000u);
  ByteWriter w;
  serialize_quantized(t, WireQuant::kF32, w);
  ByteReader in{w.data(), "wire"};
  EXPECT_TRUE(deserialize_quantized(in) == t);
  EXPECT_TRUE(in.done());
}

}  // namespace
}  // namespace nextgov::rl
