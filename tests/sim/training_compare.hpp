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
  a.table.for_each_entry([&](const rl::QTable::EntryView& ea) {
    ASSERT_TRUE(b.table.contains(ea.key())) << "state " << ea.key() << " missing";
    EXPECT_EQ(ea.visits(), b.table.visits(ea.key())) << "state " << ea.key();
    EXPECT_EQ(ea.tried(), b.table.tried_mask(ea.key())) << "state " << ea.key();
    for (std::size_t i = 0; i < a.table.action_count(); ++i) {
      EXPECT_EQ(ea.q(i), b.table.q(ea.key(), i)) << "state " << ea.key() << " action " << i;
    }
  });
  EXPECT_TRUE(a.table == b.table);
}

}  // namespace nextgov::sim
