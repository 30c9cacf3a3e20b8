// training_compare.hpp - the training determinism comparator shared by the
// execution-path tests (runner, training plan, scenario matrix).
#pragma once

#include <gtest/gtest.h>

#include "sim/experiment.hpp"

namespace nextgov::sim {

/// Bit-identity over everything the training determinism contract covers:
/// every derived field except wall_seconds (host time by definition) and
/// the learned table - action count, every entry's visit count, tried mask
/// and Q-value bits, then QTable::operator== over the whole table.
inline void expect_training_identical(const TrainingResult& a, const TrainingResult& b) {
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.final_mean_reward, b.final_mean_reward);
  EXPECT_EQ(a.states_visited, b.states_visited);
  ASSERT_EQ(a.table.action_count(), b.table.action_count());
  ASSERT_EQ(a.table.state_count(), b.table.state_count());
  EXPECT_EQ(a.table.total_visits(), b.table.total_visits());
  // Both tables walk in key order, so equal tables pair up entry by entry.
  rl::QTable::KeyOrderCursor walk_b{b.table};
  a.table.for_each_entry([&](const rl::QTable::EntryView& ea) {
    ASSERT_FALSE(walk_b.done());
    const rl::QTable::EntryView eb = walk_b.entry();
    walk_b.next();
    ASSERT_EQ(ea.key(), eb.key()) << "state " << ea.key() << " missing";
    EXPECT_EQ(ea.visits(), eb.visits()) << "state " << ea.key();
    EXPECT_EQ(ea.tried(), eb.tried()) << "state " << ea.key();
    for (std::size_t i = 0; i < a.table.action_count(); ++i) {
      EXPECT_EQ(ea.q(i), eb.q(i)) << "state " << ea.key() << " action " << i;
    }
  });
  EXPECT_TRUE(a.table == b.table);
}

}  // namespace nextgov::sim
