// Randomized op-sequence equivalence harness: the flat open-addressing
// QTable and a trivially-correct std::map reference model are driven
// through identical (set_q / record_visit / add_visits / merge / serialize)
// streams and must agree at every step - operator== semantics, point
// lookups, and byte-identical canonical encodings. Also pins the rehash
// boundary and the tombstone-free probe invariant (nothing is ever erased,
// so every inserted key stays reachable across growth).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <random>
#include <vector>

#include "common/serialize.hpp"
#include "rl/federated.hpp"
#include "rl/qtable.hpp"

namespace nextgov::rl {
namespace {

/// Reference model: ordered map of per-state rows, mirroring QTable's exact
/// arithmetic (double -> float casts, tried-mask bookkeeping) with none of
/// its storage cleverness.
struct RefTable {
  struct Entry {
    std::vector<float> q;
    std::uint64_t visits{0};
    std::uint32_t tried{0};
  };

  std::size_t actions;
  double default_q;
  std::uint64_t total_visits{0};
  std::map<StateKey, Entry> map;

  explicit RefTable(std::size_t a, double d = 0.0) : actions{a}, default_q{d} {}

  Entry& entry(StateKey s) {
    auto [it, inserted] = map.try_emplace(s);
    if (inserted) it->second.q.assign(actions, static_cast<float>(default_q));
    return it->second;
  }
  void set_q(StateKey s, std::size_t a, double value) {
    Entry& e = entry(s);
    e.q[a] = static_cast<float>(value);
    if (a < 32) e.tried |= (1u << a);
  }
  void record_visit(StateKey s) {
    ++entry(s).visits;
    ++total_visits;
  }
  void add_visits(StateKey s, std::uint64_t n) {
    entry(s).visits += n;
    total_visits += n;
  }
  [[nodiscard]] double q(StateKey s, std::size_t a) const {
    const auto it = map.find(s);
    return it == map.end() ? default_q : static_cast<double>(it->second.q[a]);
  }
  [[nodiscard]] double max_q(StateKey s) const {
    const auto it = map.find(s);
    if (it == map.end()) return default_q;
    float best = it->second.q[0];
    for (const float v : it->second.q) best = v > best ? v : best;
    return static_cast<double>(best);
  }
  /// Same canonical byte layout as QTable::serialize (std::map iterates in
  /// key order already).
  void serialize(ByteWriter& out) const {
    out.u64(static_cast<std::uint64_t>(actions));
    out.f64(default_q);
    out.u64(total_visits);
    out.u64(static_cast<std::uint64_t>(map.size()));
    for (const auto& [key, e] : map) {
      out.u64(key);
      out.u64(e.visits);
      out.u32(e.tried);
      for (const float q : e.q) out.f32(q);
    }
  }
};

std::vector<std::uint8_t> bytes_of(const QTable& t) {
  ByteWriter w;
  t.serialize(w);
  return w.data();
}

std::vector<std::uint8_t> bytes_of(const RefTable& t) {
  ByteWriter w;
  t.serialize(w);
  return w.data();
}

void expect_tables_agree(const QTable& flat, const RefTable& ref) {
  ASSERT_EQ(flat.state_count(), ref.map.size());
  ASSERT_EQ(flat.total_visits(), ref.total_visits);
  EXPECT_EQ(bytes_of(flat), bytes_of(ref));
}

/// Key pool mixing adversarial values (0, all-ones, dense low keys that an
/// identity hash would cluster) with random 64-bit keys.
std::vector<StateKey> make_key_pool(std::mt19937_64& rng, std::size_t n) {
  std::vector<StateKey> pool{0, ~0ULL, 1, 2, 3, 0x8000000000000000ULL};
  while (pool.size() < n) pool.push_back(rng());
  return pool;
}

TEST(QTableProperty, RandomOpStreamsMatchReferenceModel) {
  for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng{seed};
    const std::size_t actions = 2 + rng() % 8;
    const double default_q = (seed % 2 == 0) ? 0.0 : 12.5;
    QTable flat{actions, default_q};
    RefTable ref{actions, default_q};
    const std::vector<StateKey> pool = make_key_pool(rng, 400);
    std::uniform_real_distribution<double> val{-100.0, 100.0};

    for (std::size_t step = 0; step < 4000; ++step) {
      const StateKey key = pool[rng() % pool.size()];
      const std::size_t a = rng() % actions;
      switch (rng() % 4) {
        case 0:
        case 1: {  // set_q dominates, like a real update loop
          const double v = val(rng);
          flat.set_q(key, a, v);
          ref.set_q(key, a, v);
          break;
        }
        case 2:
          flat.record_visit(key);
          ref.record_visit(key);
          break;
        case 3: {
          const std::uint64_t n = rng() % 17;
          flat.add_visits(key, n);
          ref.add_visits(key, n);
          break;
        }
      }
      // Point lookups agree every step (cheap); canonical bytes and the
      // exact-equality operator every 250 steps (O(n log n)).
      ASSERT_EQ(flat.q(key, a), ref.q(key, a));
      ASSERT_EQ(flat.max_q(key), ref.max_q(key));
      if (step % 250 == 0 || step + 1 == 4000) {
        expect_tables_agree(flat, ref);
        const QTable reloaded = [&] {
          ByteWriter w;
          flat.serialize(w);
          ByteReader in{w.data(), "property"};
          return QTable::deserialize(in);
        }();
        ASSERT_TRUE(reloaded == flat);
      }
    }
  }
}

TEST(QTableProperty, RehashBoundariesPreserveEveryEntry) {
  // The flat table grows at 3/4 load from a 4096-slot initial slab: walk
  // straight through the 3072- and 6144-entry boundaries and require every
  // previously inserted key to stay reachable with exact values (probe
  // chains are tombstone-free, so growth is the only event that can move
  // entries).
  std::mt19937_64 rng{99};
  const std::size_t actions = 4;
  QTable flat{actions, 5.0};
  RefTable ref{actions, 5.0};
  std::vector<StateKey> inserted;
  for (std::size_t i = 0; i < 7000; ++i) {
    const StateKey key = rng();
    const double v = static_cast<double>(i) * 0.25;
    flat.set_q(key, i % actions, v);
    ref.set_q(key, i % actions, v);
    inserted.push_back(key);
    const bool at_boundary = flat.state_count() == 3071 || flat.state_count() == 3072 ||
                             flat.state_count() == 3073 || flat.state_count() == 6144;
    if (at_boundary) {
      expect_tables_agree(flat, ref);
      for (const StateKey k : inserted) {
        ASSERT_TRUE(flat.contains(k));
      }
    }
  }
  ASSERT_EQ(flat.state_count(), 7000u);
  expect_tables_agree(flat, ref);
  for (const StateKey k : inserted) {
    ASSERT_TRUE(flat.contains(k)) << "key lost across rehash";
    ASSERT_EQ(flat.visits(k), ref.map.at(k).visits);
  }
}

TEST(QTableProperty, ClusteredKeysProbeCorrectly) {
  // Dense sequential keys are the identity-hash worst case; the mixed hash
  // must spread them, and even where probe chains do form, linear probing
  // with no tombstones must keep every key reachable and distinct.
  QTable flat{3, 0.0};
  RefTable ref{3, 0.0};
  for (StateKey k = 0; k < 5000; ++k) {
    flat.set_q(k, k % 3, static_cast<double>(k));
    ref.set_q(k, k % 3, static_cast<double>(k));
  }
  expect_tables_agree(flat, ref);
  for (StateKey k = 0; k < 5000; ++k) {
    ASSERT_EQ(flat.q(k, k % 3), static_cast<double>(static_cast<float>(k)));
  }
  EXPECT_FALSE(flat.contains(5001));
  EXPECT_EQ(flat.visits(12345), 0u);
}

TEST(QTableProperty, MergeMatchesReferenceMath) {
  // merge_q_tables over flat tables must equal the same visit-weighted
  // FedAvg computed over the reference models (identical double-summation
  // order: tables in argument order, only tried actions contribute).
  for (const std::uint64_t seed : {5ULL, 6ULL}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng{seed};
    const std::size_t actions = 5;
    QTable a{actions, 0.0};
    QTable b{actions, 0.0};
    RefTable ra{actions, 0.0};
    RefTable rb{actions, 0.0};
    const std::vector<StateKey> pool = make_key_pool(rng, 120);
    std::uniform_real_distribution<double> val{-10.0, 10.0};
    for (std::size_t i = 0; i < 1500; ++i) {
      const StateKey key = pool[rng() % pool.size()];
      const std::size_t act = rng() % actions;
      const double v = val(rng);
      if (rng() % 2 == 0) {
        a.set_q(key, act, v);
        ra.set_q(key, act, v);
        if (rng() % 3 == 0) {
          a.record_visit(key);
          ra.record_visit(key);
        }
      } else {
        b.set_q(key, act, v);
        rb.set_q(key, act, v);
        if (rng() % 3 == 0) {
          b.record_visit(key);
          rb.record_visit(key);
        }
      }
    }

    const QTable* tables[] = {&a, &b};
    const QTable merged = merge_q_tables(tables);

    // Reference FedAvg, replicating rl/federated.cpp's accumulation order.
    RefTable expected{actions, 0.0};
    std::map<StateKey, std::pair<std::vector<double>, std::vector<double>>> acc;
    std::map<StateKey, double> vis;
    for (const RefTable* r : {&ra, &rb}) {
      for (const auto& [key, e] : r->map) {
        auto [it, inserted] = acc.try_emplace(
            key, std::vector<double>(actions, 0.0), std::vector<double>(actions, 0.0));
        const double w = static_cast<double>(e.visits) + 1.0;
        for (std::size_t act = 0; act < actions && act < 32; ++act) {
          if ((e.tried & (1u << act)) == 0) continue;
          it->second.first[act] += w * static_cast<double>(e.q[act]);
          it->second.second[act] += w;
        }
        vis[key] += static_cast<double>(e.visits);
      }
    }
    for (const auto& [key, wq] : acc) {
      for (std::size_t act = 0; act < actions; ++act) {
        if (wq.second[act] > 0.0) expected.set_q(key, act, wq.first[act] / wq.second[act]);
      }
      expected.add_visits(key, static_cast<std::uint64_t>(std::llround(vis[key])));
    }
    expect_tables_agree(merged, expected);
  }
}

}  // namespace
}  // namespace nextgov::rl
