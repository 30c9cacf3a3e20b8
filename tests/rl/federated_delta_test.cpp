// Property tests of the federated merge over delta inputs (rl/federated.hpp):
// a MergeInput that is a base table overlaid by a QTableDelta must merge
// bit-identically to the table apply_delta builds from the two, whatever
// the deltas change (modified rows, added states, nothing at all), however
// they mix with full-table inputs and whatever the staleness.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "common/error.hpp"
#include "rl/federated.hpp"
#include "rl/qtable_delta.hpp"

namespace nextgov::rl {
namespace {

std::vector<std::uint8_t> bytes_of(const QTable& t) {
  ByteWriter w;
  t.serialize(w);
  return w.take();
}

std::vector<float> random_row(std::mt19937_64& rng, std::size_t actions) {
  std::uniform_real_distribution<float> value{-2.0f, 2.0f};
  std::vector<float> q(actions);
  for (float& x : q) x = value(rng);
  return q;
}

/// A table of `states` random rows with keys drawn from [0, key_range):
/// random visit counts (0 for a stripped warm base), tried masks and
/// values, inserted in key order or shuffled, so some walks sort a tail.
QTable random_table(std::mt19937_64& rng, std::size_t actions, std::size_t states,
                    StateKey key_range, bool stripped) {
  QTable t{actions};
  for (std::size_t i = 0; i < states; ++i) {
    const StateKey key = rng() % key_range;
    const std::uint64_t visits = stripped ? 0 : rng() % 30;
    t.install_entry(key, visits, static_cast<std::uint32_t>(rng()) & ((1u << actions) - 1),
                    random_row(rng, actions));
  }
  return t;
}

/// `base` trained on: some of its rows rewritten (values, tried mask, a
/// visit count that may also fall) and some states added, keys below,
/// among and above the base's. With `edits` = 0 nothing changes.
QTable trained_from(const QTable& base, std::mt19937_64& rng, std::size_t edits,
                    StateKey key_range) {
  QTable next = base;
  const std::size_t actions = base.action_count();
  std::vector<StateKey> keys;
  base.for_each_entry([&](const QTable::EntryView& e) { keys.push_back(e.key()); });
  for (std::size_t i = 0; i < edits; ++i) {
    const bool add = keys.empty() || rng() % 3 == 0;
    const StateKey key = add ? rng() % (key_range + key_range / 4) : keys[rng() % keys.size()];
    const std::uint64_t visits = rng() % 4 == 0 ? next.visits(key) : rng() % 50;
    next.install_entry(key, visits, static_cast<std::uint32_t>(rng()) & ((1u << actions) - 1),
                       random_row(rng, actions));
  }
  return next;
}

TEST(FederatedDeltaMerge, DeltaInputsMergeBitIdenticallyToTheirTables) {
  std::size_t delta_inputs = 0;
  std::size_t empty_deltas = 0;
  std::size_t full_inputs = 0;
  std::size_t added_states = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng{seed};
    const std::size_t actions = 1 + rng() % 9;
    const StateKey key_range = 64 + rng() % 2000;
    // A few warm bases, several inputs per base, as a fleet whose standing
    // uploads trained in different rounds holds them.
    std::vector<QTable> bases;
    const std::size_t base_count = 1 + rng() % 3;
    for (std::size_t b = 0; b < base_count; ++b) {
      bases.push_back(random_table(rng, actions, rng() % 300, key_range, rng() % 2 == 0));
    }
    std::vector<QTable> fulls;        // full-table inputs
    std::vector<QTable> materialized;  // apply_delta of each delta input
    std::vector<QTableDelta> deltas;
    std::vector<std::size_t> delta_base;
    struct Slot {
      bool delta;
      std::size_t index;
    };
    std::vector<Slot> slots;
    const std::size_t count = 1 + rng() % 12;
    fulls.reserve(count);
    deltas.reserve(count);
    materialized.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      if (rng() % 4 == 0) {
        fulls.push_back(random_table(rng, actions, rng() % 200, key_range, false));
        slots.push_back({false, fulls.size() - 1});
        continue;
      }
      const std::size_t b = rng() % bases.size();
      const std::size_t edits = rng() % 5 == 0 ? 0 : rng() % 60;
      const QTable next = trained_from(bases[b], rng, edits, key_range);
      std::optional<QTableDelta> delta = try_make_delta(bases[b], next);
      ASSERT_TRUE(delta.has_value());
      for (const QTableDelta::Change& c : delta->changes) {
        added_states += bases[b].contains(c.key) ? 0 : 1;
      }
      empty_deltas += delta->changes.empty() ? 1 : 0;
      materialized.push_back(apply_delta(bases[b], *delta));
      ASSERT_TRUE(materialized.back() == next);
      deltas.push_back(std::move(*delta));
      delta_base.push_back(b);
      slots.push_back({true, deltas.size() - 1});
    }
    std::vector<MergeInput> held;
    std::vector<const QTable*> tables;
    std::vector<double> staleness;
    for (const Slot& s : slots) {
      if (s.delta) {
        held.push_back(MergeInput{&bases[delta_base[s.index]], &deltas[s.index]});
        tables.push_back(&materialized[s.index]);
        ++delta_inputs;
      } else {
        held.push_back(MergeInput{&fulls[s.index]});
        tables.push_back(&fulls[s.index]);
        ++full_inputs;
      }
      staleness.push_back(rng() % 3 == 0 ? 0.0 : 0.5 * static_cast<double>(rng() % 10));
    }
    const StalenessMergePolicy policy{0.8 + 0.6 * static_cast<double>(rng() % 4)};
    const QTable from_deltas = merge_q_tables(held, staleness, policy);
    const QTable from_tables = merge_q_tables(tables, staleness, policy);
    EXPECT_TRUE(from_deltas == from_tables);
    EXPECT_EQ(bytes_of(from_deltas), bytes_of(from_tables));
  }
  // The draws must have covered every kind of input.
  EXPECT_GT(delta_inputs, 500u);
  EXPECT_GT(empty_deltas, 50u);
  EXPECT_GT(full_inputs, 150u);
  EXPECT_GT(added_states, 1000u);
}

TEST(FederatedDeltaMerge, DeltaThatDoesNotApplyIsRefusedAsApplyDeltaRefusesIt) {
  std::mt19937_64 rng{7};
  const QTable base = random_table(rng, 4, 40, 100, true);
  const QTable other = random_table(rng, 4, 41, 100, true);
  const std::optional<QTableDelta> delta = try_make_delta(base, trained_from(base, rng, 10, 100));
  ASSERT_TRUE(delta.has_value());
  const std::vector<double> fresh{0.0};
  const MergeInput wrong_base[] = {MergeInput{&other, &*delta}};
  EXPECT_THROW((void)apply_delta(other, *delta), SerializeError);
  EXPECT_THROW((void)merge_q_tables(wrong_base, fresh), SerializeError);

  QTableDelta short_rows = *delta;
  short_rows.q.pop_back();
  const MergeInput short_input[] = {MergeInput{&base, &short_rows}};
  EXPECT_THROW((void)apply_delta(base, short_rows), SerializeError);
  EXPECT_THROW((void)merge_q_tables(short_input, fresh), SerializeError);
}

}  // namespace
}  // namespace nextgov::rl
