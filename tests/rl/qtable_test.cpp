// Unit tests for the sparse Q-table, including persistence.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "rl/qtable.hpp"

namespace nextgov::rl {
namespace {

TEST(QTable, StartsEmptyWithDefaultValues) {
  QTable t{9};
  EXPECT_EQ(t.state_count(), 0u);
  EXPECT_DOUBLE_EQ(t.q(123, 0), 0.0);
  EXPECT_DOUBLE_EQ(t.max_q(123), 0.0);
  EXPECT_EQ(t.best_action(123, 5), 5u);  // fallback for unknown state
}

TEST(QTable, OptimisticDefaultAppliesToUnseenEntries) {
  QTable t{4, 1.5};
  EXPECT_DOUBLE_EQ(t.q(7, 2), 1.5);
  EXPECT_DOUBLE_EQ(t.max_q(7), 1.5);
  t.set_q(7, 0, 0.3);
  // Touched entry materializes with the optimistic default elsewhere.
  EXPECT_DOUBLE_EQ(t.q(7, 1), 1.5);
  EXPECT_FLOAT_EQ(static_cast<float>(t.q(7, 0)), 0.3f);  // float storage
}

TEST(QTable, RejectsZeroActions) { EXPECT_THROW(QTable{0}, ConfigError); }

TEST(QTable, BestActionPrefersHighestQ) {
  QTable t{3};
  t.set_q(1, 0, 0.1);
  t.set_q(1, 1, 0.9);
  t.set_q(1, 2, 0.5);
  EXPECT_EQ(t.best_action(1), 1u);
  EXPECT_DOUBLE_EQ(t.max_q(1), static_cast<float>(0.9));
}

TEST(QTable, BestTriedActionIgnoresUntriedOptimisticEntries) {
  QTable t{3, 5.0};  // untried entries look great at 5.0
  t.set_q(1, 2, 0.4);
  // best_action would pick an untried 5.0; best_tried_action must not.
  EXPECT_EQ(t.best_action(1), 0u);
  EXPECT_EQ(t.best_tried_action(1, 99), 2u);
  // Unknown state: fallback.
  EXPECT_EQ(t.best_tried_action(42, 7), 7u);
}

TEST(QTable, VisitAccounting) {
  QTable t{2};
  t.record_visit(10);
  t.record_visit(10);
  t.record_visit(20);
  EXPECT_EQ(t.visits(10), 2u);
  EXPECT_EQ(t.visits(20), 1u);
  EXPECT_EQ(t.visits(30), 0u);
  EXPECT_EQ(t.total_visits(), 3u);
  t.add_visits(20, 5);
  EXPECT_EQ(t.visits(20), 6u);
  EXPECT_EQ(t.total_visits(), 8u);
}

TEST(QTable, ClearResetsEverything) {
  QTable t{2};
  t.set_q(1, 0, 0.5);
  t.record_visit(1);
  t.clear();
  EXPECT_EQ(t.state_count(), 0u);
  EXPECT_EQ(t.total_visits(), 0u);
}

TEST(QTable, EqualityIsExact) {
  QTable a{3};
  QTable b{3};
  EXPECT_TRUE(a == b);
  a.set_q(5, 1, 0.25);
  EXPECT_FALSE(a == b);
  b.set_q(5, 1, 0.25);
  EXPECT_TRUE(a == b);
  // Visit mass participates: same values, different history -> unequal.
  a.record_visit(5);
  EXPECT_FALSE(a == b);
  b.record_visit(5);
  EXPECT_TRUE(a == b);
  // Action count and default participate too.
  EXPECT_FALSE(QTable{3} == QTable{4});
  EXPECT_FALSE((QTable{3, 0.0}) == (QTable{3, 1.0}));
}

TEST(QTable, EqualityIgnoresInsertionOrder) {
  QTable a{2};
  QTable b{2};
  a.set_q(1, 0, 0.1);
  a.set_q(2, 0, 0.2);
  b.set_q(2, 0, 0.2);
  b.set_q(1, 0, 0.1);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a != b);
}

TEST(QTable, GrowthPreservesEveryStoredValueExactly) {
  // Push the table far past its initial 4096-slot capacity so grow()
  // rehashes several times, then audit every entry against a recomputable
  // formula. Pins the slot-major rehash copy: a transposed index in the
  // grow loop scrambles Q rows silently while small-table tests stay green
  // (this exact bug escaped the rest of the suite once).
  QTable t{7, 2.0};
  const auto value = [](StateKey s, std::size_t a) {
    return 0.125 * static_cast<double>((s * 7 + a) % 1000);
  };
  const std::size_t n = 20000;
  for (StateKey s = 1; s <= n; ++s) {
    t.set_q(s * 0x9e3779b9u, s % 7, value(s * 0x9e3779b9u, s % 7));
    t.add_visits(s * 0x9e3779b9u, s % 5);
  }
  ASSERT_EQ(t.state_count(), n);
  for (StateKey s = 1; s <= n; ++s) {
    const StateKey key = s * 0x9e3779b9u;
    EXPECT_FLOAT_EQ(static_cast<float>(t.q(key, s % 7)),
                    static_cast<float>(value(key, s % 7)))
        << "state " << s;
    EXPECT_FLOAT_EQ(static_cast<float>(t.q(key, (s + 1) % 7)), 2.0f) << "state " << s;
    EXPECT_EQ(t.visits(key), s % 5);
    EXPECT_EQ(t.tried_mask(key), 1u << (s % 7));
  }
  // The grown table round-trips through the canonical wire bit-exactly.
  ByteWriter w;
  t.serialize(w);
  ByteReader r{w.data(), "grown"};
  EXPECT_TRUE(QTable::deserialize(r) == t);
}

TEST(QTable, SerializationIsCanonical) {
  // Equal tables must produce identical bytes regardless of the order
  // states were learned in - fleet resume golden tests compare snapshots
  // byte-for-byte.
  QTable a{2};
  QTable b{2};
  for (StateKey s = 0; s < 20; ++s) a.set_q(s * 7, 1, 0.1 * static_cast<double>(s));
  for (StateKey s = 20; s-- > 0;) b.set_q(s * 7, 1, 0.1 * static_cast<double>(s));
  ByteWriter wa;
  ByteWriter wb;
  a.serialize(wa);
  b.serialize(wb);
  EXPECT_EQ(wa.data(), wb.data());
}

TEST(QTable, DeserializeRoundTripsExactly) {
  QTable t{5, 0.5};
  for (StateKey s = 0; s < 30; ++s) {
    t.set_q(s * 31, s % 5, static_cast<double>(s) * 0.01);
    t.add_visits(s * 31, s);
  }
  ByteWriter w;
  t.serialize(w);
  ByteReader r{w.data(), "test"};
  const QTable back = QTable::deserialize(r);
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(back == t);
}

TEST(QTable, DeserializeRejectsImplausibleHeaders) {
  ByteWriter w;
  w.u64(0);  // zero actions
  ByteReader r{w.data(), "test"};
  EXPECT_THROW((void)QTable::deserialize(r), SerializeError);

  // A 32-byte header claiming 2^20 states of 27 actions is refused from the
  // count alone, before anything is allocated for those states.
  ByteWriter hostile;
  hostile.u64(27);        // actions
  hostile.f64(0.0);       // default_q
  hostile.u64(0);         // total visits
  hostile.u64(1u << 20);  // states
  ByteReader r2{hostile.data(), "test"};
  try {
    (void)QTable::deserialize(r2);
    ADD_FAILURE() << "hostile state count accepted";
  } catch (const SerializeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("state count 1048576"), std::string::npos) << what;
    EXPECT_EQ(what.find("truncated"), std::string::npos) << what;
  }
}

class QTablePersistence : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "/nextgov_qtable_test.bin";
};

TEST_F(QTablePersistence, SaveLoadRoundTrip) {
  QTable t{9};
  for (StateKey s = 0; s < 50; ++s) {
    for (std::size_t a = 0; a < 9; a += 2) t.set_q(s * 1000, a, 0.01 * static_cast<double>(s) + 0.1 * static_cast<double>(a));
    t.record_visit(s * 1000);
  }
  t.save(path_);
  const QTable loaded = QTable::load(path_);
  EXPECT_EQ(loaded.action_count(), 9u);
  EXPECT_EQ(loaded.state_count(), 50u);
  EXPECT_EQ(loaded.total_visits(), t.total_visits());
  for (StateKey s = 0; s < 50; ++s) {
    for (std::size_t a = 0; a < 9; ++a) {
      EXPECT_FLOAT_EQ(static_cast<float>(loaded.q(s * 1000, a)),
                      static_cast<float>(t.q(s * 1000, a)));
    }
    EXPECT_EQ(loaded.best_tried_action(s * 1000, 1), t.best_tried_action(s * 1000, 1));
  }
}

TEST_F(QTablePersistence, LoadRejectsGarbage) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a qtable", f);
    std::fclose(f);
  }
  EXPECT_THROW(QTable::load(path_), IoError);
}

TEST_F(QTablePersistence, LoadRejectsCorruptedAndTruncatedFiles) {
  QTable t{4};
  for (StateKey s = 0; s < 10; ++s) t.set_q(s, s % 4, 0.5);
  t.save(path_);
  std::vector<unsigned char> good;
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    int c;
    while ((c = std::fgetc(f)) != EOF) good.push_back(static_cast<unsigned char>(c));
    std::fclose(f);
  }
  const auto write_bytes = [&](const std::vector<unsigned char>& bytes) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  };
  // Flip one payload byte: the section CRC must catch it.
  std::vector<unsigned char> flipped = good;
  flipped[good.size() - 3] ^= 0x10;
  write_bytes(flipped);
  try {
    (void)QTable::load(path_);
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC32"), std::string::npos) << e.what();
  }
  // Truncate: the framing must catch it.
  write_bytes({good.begin(), good.begin() + static_cast<std::ptrdiff_t>(good.size() / 2)});
  EXPECT_THROW((void)QTable::load(path_), SerializeError);
  // And the original still loads.
  write_bytes(good);
  EXPECT_TRUE(QTable::load(path_) == t);
}

TEST_F(QTablePersistence, LoadMissingFileThrows) {
  EXPECT_THROW(QTable::load("/nonexistent/q.bin"), IoError);
}

TEST_F(QTablePersistence, SaveToBadPathThrows) {
  const QTable t{2};
  EXPECT_THROW(t.save("/nonexistent-dir-xyz/q.bin"), IoError);
}

}  // namespace
}  // namespace nextgov::rl
