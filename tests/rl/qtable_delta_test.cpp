// Tests for the sparse fleet-sync wire encoding (rl/qtable_delta.hpp):
// delta encode/apply bit-exactness, base-guard rejection and canonical delta
// bytes.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace nextgov::rl
