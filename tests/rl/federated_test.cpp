// Unit tests for federated Q-table merging and cloud timing (Section IV-C).
#include <gtest/gtest.h>

#include <array>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "rl/federated.hpp"

namespace nextgov::rl {
namespace {

/// A merge of uploads that are all fresh (staleness 0, full weight).
QTable merge_fresh(std::span<const QTable* const> tables) {
  const std::vector<double> fresh(tables.size(), 0.0);
  return merge_q_tables(tables, fresh);
}

/// The tried mask of state `s`; 0 when the table does not hold it.
std::uint32_t tried_of(const QTable& t, StateKey s) {
  std::uint32_t tried = 0;
  t.for_each_entry([&](const QTable::EntryView& e) {
    if (e.key() == s) tried = e.tried();
  });
  return tried;
}

TEST(Federated, SingleTableIsIdentityOnTriedEntries) {
  QTable t{3};
  t.set_q(1, 0, 0.5);
  t.set_q(1, 2, -0.25);
  t.record_visit(1);
  const std::array<const QTable*, 1> tables{&t};
  const QTable merged = merge_fresh(tables);
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(1, 0)), 0.5f);
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(1, 2)), -0.25f);
  EXPECT_EQ(merged.visits(1), 1u);
}

TEST(Federated, VisitWeightedAverage) {
  QTable a{2};
  a.set_q(5, 0, 1.0);
  for (int i = 0; i < 9; ++i) a.record_visit(5);  // weight 10
  QTable b{2};
  b.set_q(5, 0, 0.0);
  // b has 0 recorded visits -> weight 1.
  b.set_q(5, 1, 0.5);
  const std::array<const QTable*, 2> tables{&a, &b};
  const QTable merged = merge_fresh(tables);
  EXPECT_NEAR(merged.q(5, 0), 10.0 / 11.0, 1e-5);
  // Action 1 was tried only by b.
  EXPECT_NEAR(merged.q(5, 1), 0.5, 1e-6);
}

TEST(Federated, DisjointStatesUnionize) {
  QTable a{2};
  a.set_q(1, 0, 0.4);
  QTable b{2};
  b.set_q(2, 1, 0.7);
  const std::array<const QTable*, 2> tables{&a, &b};
  const QTable merged = merge_fresh(tables);
  EXPECT_EQ(merged.state_count(), 2u);
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(1, 0)), 0.4f);
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(2, 1)), 0.7f);
}

TEST(Federated, UntriedOptimisticEntriesDoNotPolluteMerge) {
  QTable a{2, /*default_q=*/5.0};  // optimistic init
  a.set_q(1, 0, 0.3);              // only action 0 tried
  QTable b{2, 5.0};
  b.set_q(1, 0, 0.5);
  const std::array<const QTable*, 2> tables{&a, &b};
  const QTable merged = merge_fresh(tables);
  EXPECT_NEAR(merged.q(1, 0), 0.4, 1e-6);
  // Action 1 untried everywhere: merged entry keeps the merged-table
  // default (0), not the devices' optimism, and stays untried.
  EXPECT_EQ(merged.q(1, 1), 0.0);
  EXPECT_EQ(tried_of(merged, 1), 1u << 0);
}

TEST(Federated, MismatchedActionCountsRejected) {
  QTable a{2};
  QTable b{3};
  const std::array<const QTable*, 2> tables{&a, &b};
  EXPECT_THROW((void)merge_fresh(tables), ConfigError);
}

TEST(Federated, EmptyInputRejected) {
  EXPECT_THROW((void)merge_fresh({}), ConfigError);
}

TEST(Federated, NullTableRejected) {
  QTable a{2};
  const std::array<const QTable*, 2> tables{&a, nullptr};
  EXPECT_THROW((void)merge_fresh(tables), ConfigError);
}

TEST(FederatedStaleness, ZeroStalenessMatchesPlainMerge) {
  // Staleness 0 is full weight: the merge is the plain visit-weighted
  // average, (visits + 1) per table.
  QTable a{2};
  a.set_q(5, 0, 1.0);
  for (int i = 0; i < 9; ++i) a.record_visit(5);  // weight 10
  QTable b{2};
  b.set_q(5, 0, 0.0);  // weight 1
  b.set_q(7, 1, 0.25);
  const std::array<const QTable*, 2> tables{&a, &b};
  const std::array<double, 2> fresh{0.0, 0.0};
  const QTable merged = merge_q_tables(tables, fresh);
  EXPECT_EQ(merged.state_count(), 2u);
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(5, 0)), static_cast<float>(10.0 / 11.0));
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(7, 1)), 0.25f);
  EXPECT_EQ(merged.total_visits(), 9u);
}

TEST(FederatedStaleness, StaleTableIsDownweighted) {
  // Both tables carry 10 effective visits (9 recorded + 1) on state 5,
  // action 0: fresh says 1.0, a 2-round-stale upload says 0.0. With a
  // 1-round half-life the stale weight is 2^-2 = 0.25, so the merge is
  // 10*1.0 / (10 + 2.5) = 0.8 - not the plain merge's 0.5.
  QTable fresh{1};
  fresh.set_q(5, 0, 1.0);
  for (int i = 0; i < 9; ++i) fresh.record_visit(5);
  QTable stale{1};
  stale.set_q(5, 0, 0.0);
  for (int i = 0; i < 9; ++i) stale.record_visit(5);
  const std::array<const QTable*, 2> tables{&fresh, &stale};
  const std::array<double, 2> staleness{0.0, 2.0};
  const QTable merged = merge_q_tables(tables, staleness, StalenessMergePolicy{1.0});
  EXPECT_NEAR(merged.q(5, 0), 0.8, 1e-6);
  // Visit mass is discounted the same way: 9 + round(0.25 * 9) = 11.
  EXPECT_EQ(merged.total_visits(), 11u);
}

TEST(FederatedStaleness, VeryStaleStatesStillSurviveTheMerge) {
  // A shard that has not phoned home for many rounds contributes almost no
  // weight to contested entries, but its exclusive coverage must not be
  // dropped: weight decays, it never reaches zero.
  QTable fresh{1};
  fresh.set_q(1, 0, 0.5);
  QTable stale{1};
  stale.set_q(2, 0, 0.9);
  const std::array<const QTable*, 2> tables{&fresh, &stale};
  const std::array<double, 2> staleness{0.0, 50.0};
  const QTable merged = merge_q_tables(tables, staleness);
  EXPECT_EQ(merged.state_count(), 2u);
  EXPECT_NEAR(merged.q(2, 0), 0.9, 1e-6);
}

TEST(FederatedStaleness, HalfLifeControlsDecay) {
  const StalenessMergePolicy fast{1.0};
  const StalenessMergePolicy slow{4.0};
  EXPECT_DOUBLE_EQ(fast.weight(0.0), 1.0);
  EXPECT_DOUBLE_EQ(fast.weight(1.0), 0.5);
  EXPECT_DOUBLE_EQ(fast.weight(3.0), 0.125);
  EXPECT_DOUBLE_EQ(slow.weight(4.0), 0.5);
  EXPECT_GT(slow.weight(3.0), fast.weight(3.0));
}

TEST(FederatedStaleness, RejectsBadInputs) {
  QTable a{2};
  QTable b{2};
  const std::array<const QTable*, 2> tables{&a, &b};
  const std::array<double, 1> short_staleness{0.0};
  EXPECT_THROW((void)merge_q_tables(tables, short_staleness), ConfigError);
  const std::array<double, 2> negative{0.0, -1.0};
  EXPECT_THROW((void)merge_q_tables(tables, negative), ConfigError);
  const std::array<double, 2> fine{0.0, 1.0};
  EXPECT_THROW((void)merge_q_tables(tables, fine, StalenessMergePolicy{0.0}), ConfigError);
}

TEST(FederatedMerge, EmptySpanIsRejected) {
  const std::vector<const QTable*> none;
  const std::vector<double> no_staleness;
  EXPECT_THROW((void)merge_q_tables(none, no_staleness), ConfigError);
}

TEST(FederatedMerge, SingleTableMergesToItself) {
  QTable t{3};
  t.set_q(10, 0, 0.4);
  t.set_q(10, 2, 0.8);
  t.set_q(20, 1, -0.1);
  t.add_visits(10, 5);
  const std::array<const QTable*, 1> one{&t};
  const QTable merged = merge_fresh(one);
  // Values and visit mass survive unchanged; untried entries stay untried
  // (the merged table materializes them at its own default 0.0, which is
  // also what a single-table merge of a default-q table produces).
  EXPECT_EQ(merged.state_count(), 2u);
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(10, 0)), 0.4f);
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(10, 2)), 0.8f);
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(20, 1)), -0.1f);
  EXPECT_EQ(merged.visits(10), 5u);
  EXPECT_EQ(merged.total_visits(), t.total_visits());
  EXPECT_EQ(tried_of(merged, 10), (1u << 0) | (1u << 2));
  EXPECT_EQ(tried_of(merged, 20), 1u << 1);
}

TEST(FederatedMerge, ZeroVisitTablesStillContribute) {
  // The +1 in the visit weighting: a device that tried actions but logged
  // no visits (e.g. a warm start stripped of visit mass) still averages in
  // with weight 1 per table instead of vanishing.
  QTable a{2};
  QTable b{2};
  a.set_q(1, 0, 0.0);
  b.set_q(1, 0, 1.0);
  const std::array<const QTable*, 2> tables{&a, &b};
  const QTable merged = merge_fresh(tables);
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(1, 0)), 0.5f);
  EXPECT_EQ(merged.visits(1), 0u);  // no real visit mass was ever recorded
}

TEST(FederatedMerge, ExtremeStalenessUnderflowsToZeroWeightGracefully) {
  // 2^(-s/h) underflows to exactly 0.0 for huge staleness; the upload then
  // contributes nothing - including its visit mass - but the merge itself
  // must stay well-defined and keep the fresh table intact.
  QTable fresh{2};
  fresh.set_q(1, 0, 0.25);
  fresh.add_visits(1, 10);
  QTable ancient{2};
  ancient.set_q(1, 0, 0.75);
  ancient.set_q(2, 1, 0.9);  // a state only the stale upload knows
  ancient.add_visits(1, 1000);
  const StalenessMergePolicy policy{2.0};
  EXPECT_EQ(policy.weight(1e6), 0.0);  // confirmed underflow
  const std::array<const QTable*, 2> tables{&fresh, &ancient};
  const std::array<double, 2> staleness{0.0, 1e6};
  const QTable merged = merge_q_tables(tables, staleness, policy);
  EXPECT_FLOAT_EQ(static_cast<float>(merged.q(1, 0)), 0.25f);
  EXPECT_EQ(merged.visits(1), 10u);
  // The zero-weight table's exclusive state still materializes (the accum
  // map visits it) but with no tried actions and zero visits: pinned so a
  // future "skip zero-weight tables" optimization shows up as a diff here.
  EXPECT_EQ(merged.state_count(), 2u);
  EXPECT_EQ(merged.visits(2), 0u);
  EXPECT_EQ(tried_of(merged, 2), 0u);
}

TEST(CloudTiming, AddsPaperCommunicationOverhead) {
  // Section IV-C: "maximum communication (to- and fro-) overhead of 4 secs".
  const CloudTimingModel model{};
  EXPECT_DOUBLE_EQ(model.total_time_s(7.0), 11.0);
  EXPECT_DOUBLE_EQ(CloudTimingModel{2.5}.total_time_s(0.0), 2.5);
}

}  // namespace
}  // namespace nextgov::rl
