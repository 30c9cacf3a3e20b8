// Randomized tests for the Q-table's row layout: rows are stored in
// insertion order behind a hash index, with a sorted prefix that key-order
// walks scan directly. Insertion order must never show - not in the
// canonical bytes, operator==, the for_each_entry order or the delta
// encoding - and the k-way federated merge must equal the hash-map
// accumulator it replaced, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/serialize.hpp"
#include "rl/federated.hpp"
#include "rl/qtable.hpp"
#include "rl/qtable_delta.hpp"

namespace nextgov::rl {
namespace {

struct Row {
  StateKey key;
  std::uint64_t visits;
  std::uint32_t tried;
  std::vector<float> q;
};

/// `n` rows with distinct keys, sorted by key: a mix of packed-looking
/// small keys and full 64-bit ones, so the radix sort sees both.
std::vector<Row> make_rows(std::mt19937_64& rng, std::size_t n, std::size_t actions) {
  std::vector<StateKey> keys;
  while (keys.size() < n) {
    while (keys.size() < n) keys.push_back(rng() % 2 == 0 ? rng() % 100'000 : rng());
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  std::uniform_real_distribution<float> val{-3.0f, 3.0f};
  std::vector<Row> rows;
  for (const StateKey k : keys) {
    Row r{k, rng() % 50, static_cast<std::uint32_t>(rng()) & ((1u << actions) - 1), {}};
    for (std::size_t a = 0; a < actions; ++a) r.q.push_back(val(rng));
    rows.push_back(std::move(r));
  }
  return rows;
}

QTable build(const std::vector<Row>& rows, std::span<const std::size_t> order,
             std::size_t actions) {
  QTable t{actions, 1.5};
  for (const std::size_t i : order) {
    t.install_entry(rows[i].key, rows[i].visits, rows[i].tried, rows[i].q);
  }
  return t;
}

std::vector<std::uint8_t> bytes_of(const QTable& t) {
  ByteWriter w;
  t.serialize(w);
  return w.data();
}

std::vector<std::uint8_t> bytes_of(const QTableDelta& d) {
  ByteWriter w;
  d.serialize(w);
  return w.data();
}

std::vector<StateKey> walk_keys(const QTable& t) {
  std::vector<StateKey> keys;
  t.for_each_entry([&](const QTable::EntryView& e) { keys.push_back(e.key()); });
  return keys;
}

TEST(QTableLayout, InsertionOrderNeverShows) {
  // Sizes straddle the index's growth points (3/4 of 4096 and 8192 slots).
  for (const std::size_t n : {1u, 2u, 97u, 3071u, 3072u, 3073u, 6145u}) {
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed));
      std::mt19937_64 rng{seed * 1000 + n};
      const std::size_t actions = 1 + rng() % 9;
      const std::vector<Row> rows = make_rows(rng, n, actions);

      std::vector<std::size_t> sorted(n);
      for (std::size_t i = 0; i < n; ++i) sorted[i] = i;
      std::vector<std::size_t> reversed(sorted.rbegin(), sorted.rend());
      std::vector<std::size_t> shuffled = sorted;
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      // A sorted prefix, then the rest in random order: a trained copy of
      // a warm table.
      std::vector<std::size_t> prefix_tail = sorted;
      const std::size_t cut = rng() % (n + 1);
      std::shuffle(prefix_tail.begin() + static_cast<std::ptrdiff_t>(cut), prefix_tail.end(), rng);

      const QTable reference = build(rows, sorted, actions);
      std::vector<StateKey> expected_keys;
      for (const Row& r : rows) expected_keys.push_back(r.key);
      ASSERT_EQ(walk_keys(reference), expected_keys);
      const std::vector<std::uint8_t> expected_bytes = bytes_of(reference);

      // The delta base: every other row of the sorted set, some of them
      // with other values, so the delta both adds and modifies states.
      QTable base{actions, 1.5};
      for (std::size_t i = 0; i < n; i += 2) {
        std::vector<float> q = rows[i].q;
        if (i % 4 == 0) q[0] += 1.0f;
        base.install_entry(rows[i].key, rows[i].visits / 2, rows[i].tried, q);
      }
      const std::optional<QTableDelta> expected_delta = try_make_delta(base, reference);
      ASSERT_TRUE(expected_delta.has_value());
      const std::vector<std::uint8_t> expected_delta_bytes = bytes_of(*expected_delta);

      for (const auto* order : {&reversed, &shuffled, &prefix_tail}) {
        const QTable t = build(rows, *order, actions);
        EXPECT_TRUE(t == reference);
        EXPECT_TRUE(reference == t);
        EXPECT_EQ(walk_keys(t), expected_keys);
        EXPECT_EQ(bytes_of(t), expected_bytes);
        const std::optional<QTableDelta> delta = try_make_delta(base, t);
        ASSERT_TRUE(delta.has_value());
        EXPECT_EQ(bytes_of(*delta), expected_delta_bytes);
        EXPECT_TRUE(apply_delta(base, *delta) == reference);
        // A copy keeps the layout, and the decoded table is all prefix.
        const QTable copy = t;
        EXPECT_EQ(bytes_of(copy), expected_bytes);
        ByteReader in{expected_bytes, "layout"};
        EXPECT_TRUE(QTable::deserialize(in) == t);
      }
    }
  }
}

TEST(QTableLayout, RowsAppendedToASortedCopyWalkInKeyOrder) {
  // The fleet's shape: a warm table decoded in key order, copied, then
  // trained - set_q on old and new states alike.
  std::mt19937_64 rng{42};
  const std::vector<Row> rows = make_rows(rng, 5000, 9);
  std::vector<std::size_t> order(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) order[i] = i;
  const QTable warm = build(rows, order, 9);
  QTable trained = warm;
  std::vector<StateKey> keys = walk_keys(warm);
  for (int i = 0; i < 300; ++i) {
    const StateKey fresh = rng();
    trained.set_q(fresh, rng() % 9, 0.25);
    trained.set_q(rows[rng() % rows.size()].key, rng() % 9, -0.5);
    keys.push_back(fresh);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  EXPECT_EQ(walk_keys(trained), keys);
  const std::vector<std::uint8_t> bytes = bytes_of(trained);
  ByteReader in{bytes, "layout"};
  EXPECT_TRUE(QTable::deserialize(in) == trained);
}

TEST(QTableLayout, DeserializeRejectsDuplicateKeysInAnyOrder) {
  const auto payload = [](const std::vector<StateKey>& keys) {
    ByteWriter w;
    w.u64(2);    // actions
    w.f64(0.0);  // default_q
    w.u64(0);    // total visits
    w.u64(keys.size());
    for (const StateKey k : keys) {
      w.u64(k);
      w.u64(0);
      w.u32(0);
      w.f32(0.5f);
      w.f32(0.25f);
    }
    return w.data();
  };
  // Adjacent and distant duplicates, after sorted and unsorted runs.
  for (const std::vector<StateKey>& keys :
       {std::vector<StateKey>{5, 5}, {1, 5, 5}, {5, 1, 5}, {9, 3, 7, 3}}) {
    const std::vector<std::uint8_t> bytes = payload(keys);
    ByteReader in{bytes, "dup"};
    try {
      (void)QTable::deserialize(in);
      ADD_FAILURE() << "duplicate key accepted";
    } catch (const SerializeError& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate state key"), std::string::npos) << e.what();
    }
  }
  // Distinct keys out of order still decode, and re-encode canonically.
  const std::vector<std::uint8_t> unsorted_bytes = payload({9, 3, 7});
  ByteReader unsorted{unsorted_bytes, "unsorted"};
  const QTable t = QTable::deserialize(unsorted);
  EXPECT_EQ(walk_keys(t), (std::vector<StateKey>{3, 7, 9}));
  EXPECT_EQ(bytes_of(t), payload({3, 7, 9}));
}

/// The accumulator merge_q_tables used before its k-way merge: one hash-map
/// entry per state with two per-action vectors, filled table by table, then
/// written out with set_q/add_visits.
QTable hash_map_merge(std::span<const QTable* const> tables, std::span<const double> weights) {
  const std::size_t actions = tables.front()->action_count();
  struct Acc {
    std::vector<double> weighted_q;
    std::vector<double> weight;
    double visits{0.0};
  };
  std::unordered_map<StateKey, Acc> acc;
  for (std::size_t ti = 0; ti < tables.size(); ++ti) {
    const double tw = weights[ti];
    tables[ti]->for_each_entry([&](const QTable::EntryView& e) {
      auto [it, inserted] = acc.try_emplace(e.key());
      if (inserted) {
        it->second.weighted_q.assign(actions, 0.0);
        it->second.weight.assign(actions, 0.0);
      }
      const double w = tw * (static_cast<double>(e.visits()) + 1.0);
      for (std::size_t a = 0; a < actions && a < 32; ++a) {
        if ((e.tried() & (1u << a)) == 0) continue;
        it->second.weighted_q[a] += w * static_cast<double>(e.q(a));
        it->second.weight[a] += w;
      }
      it->second.visits += tw * static_cast<double>(e.visits());
    });
  }
  QTable merged{actions};
  for (const auto& [key, a] : acc) {
    for (std::size_t action = 0; action < actions; ++action) {
      if (a.weight[action] > 0.0) {
        merged.set_q(key, action, a.weighted_q[action] / a.weight[action]);
      }
    }
    merged.add_visits(key, static_cast<std::uint64_t>(std::llround(a.visits)));
  }
  return merged;
}

TEST(FederatedMergeOracle, KWayMergeEqualsHashMapAccumulator) {
  for (const std::uint64_t seed : {3ULL, 4ULL, 5ULL, 6ULL}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng{seed};
    const std::size_t actions = 2 + rng() % 8;
    // A shared pool, so inputs overlap heavily (a fleet's warm start)
    // but each also holds states of its own.
    const std::vector<Row> pool = make_rows(rng, 2000, actions);
    std::vector<QTable> inputs;
    const std::size_t count = 1 + rng() % 16;
    for (std::size_t t = 0; t < count; ++t) {
      QTable table{actions, 1.2};
      std::vector<std::size_t> order;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        if (rng() % 3 != 0) order.push_back(i);
      }
      // Mostly key order, with a shuffled tail.
      std::shuffle(order.begin() + static_cast<std::ptrdiff_t>(order.size() * 9 / 10),
                   order.end(), rng);
      for (const std::size_t i : order) {
        std::vector<float> q = pool[i].q;
        q[rng() % actions] += static_cast<float>(t);
        table.install_entry(pool[i].key, rng() % 40, pool[i].tried, q);
      }
      for (int extra = 0; extra < 50; ++extra) table.set_q(rng(), rng() % actions, 0.125);
      inputs.push_back(std::move(table));
    }
    std::vector<const QTable*> tables;
    std::vector<double> staleness;
    std::vector<double> weights;
    // Fractional staleness, as stragglers give, and weights that are not
    // powers of two.
    const StalenessMergePolicy policy{1.3 + 0.7 * static_cast<double>(rng() % 4)};
    for (const QTable& t : inputs) {
      tables.push_back(&t);
      staleness.push_back(rng() % 4 == 0 ? 0.0 : 0.5 * static_cast<double>(rng() % 12));
      weights.push_back(policy.weight(staleness.back()));
    }
    const QTable merged = merge_q_tables(tables, staleness, policy);
    const QTable oracle = hash_map_merge(tables, weights);
    EXPECT_TRUE(merged == oracle);
    EXPECT_EQ(bytes_of(merged), bytes_of(oracle));

    const std::vector<double> unit(tables.size(), 1.0);
    EXPECT_TRUE(merge_q_tables(tables) == hash_map_merge(tables, unit));
  }
}

}  // namespace
}  // namespace nextgov::rl
