// Unit tests for the Q-learning update (Eq. 3), including convergence on a
// small deterministic MDP.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "rl/policy.hpp"
#include "rl/qlearning.hpp"

namespace nextgov::rl {
namespace {

TEST(QLearning, ValidatesParameters) {
  EXPECT_THROW(QLearning({.alpha = 0.0, .gamma = 0.5}), ConfigError);
  EXPECT_THROW(QLearning({.alpha = 1.5, .gamma = 0.5}), ConfigError);
  EXPECT_THROW(QLearning({.alpha = 0.1, .gamma = 1.0}), ConfigError);
}

TEST(QLearning, SingleUpdateMatchesEquation3) {
  QTable t{2};
  t.set_q(0, 0, 0.5);
  t.set_q(1, 0, 0.2);
  t.set_q(1, 1, 0.8);
  QLearning learner{{.alpha = 0.1, .gamma = 0.9, .alpha_min = 0.1, .visit_decay = 0.0}};
  const double td = learner.update(t, 0, 0, 1.0, 1);
  // Q <- Q + alpha*(r - Q + gamma*maxQ(s')) = 0.5 + 0.1*(1 - 0.5 + 0.72).
  EXPECT_NEAR(td, 1.0 - 0.5 + 0.9 * 0.8, 1e-6);
  EXPECT_NEAR(t.q(0, 0), 0.5 + 0.1 * td, 1e-6);
}

TEST(QLearning, TerminalUpdateOmitsBootstrap) {
  // An update into an absorbing state whose row is pinned at 0 (the
  // corridor goal below) bootstraps nothing: the TD error is r - Q(s, a).
  QTable t{2};
  t.set_q(9, 0, 0.0);
  t.set_q(9, 1, 0.0);
  QLearning learner{{.alpha = 0.5, .gamma = 0.9, .alpha_min = 0.5, .visit_decay = 0.0}};
  const double td = learner.update(t, 0, 1, 1.0, 9);
  EXPECT_DOUBLE_EQ(td, 1.0);
  EXPECT_NEAR(t.q(0, 1), 0.5, 1e-6);
}

TEST(QLearning, RepeatedUpdatesConvergeToFixedPoint) {
  // Constant reward 1 transitioning to itself: Q* = 1 / (1 - gamma).
  QTable t{1};
  QLearning learner{{.alpha = 0.2, .gamma = 0.5, .alpha_min = 0.2, .visit_decay = 0.0}};
  for (int i = 0; i < 500; ++i) (void)learner.update(t, 0, 0, 1.0, 0);
  EXPECT_NEAR(t.q(0, 0), 2.0, 1e-3);
}

TEST(QLearning, VisitDecayReducesEffectiveAlpha) {
  QTable t{1};
  QLearning learner{{.alpha = 0.4, .gamma = 0.5, .alpha_min = 0.05, .visit_decay = 0.1}};
  EXPECT_DOUBLE_EQ(learner.effective_alpha(t, 0), 0.4);
  for (int i = 0; i < 50; ++i) (void)learner.update(t, 0, 0, 1.0, 0);
  EXPECT_LT(learner.effective_alpha(t, 0), 0.4);
  for (int i = 0; i < 5000; ++i) (void)learner.update(t, 0, 0, 1.0, 0);
  EXPECT_DOUBLE_EQ(learner.effective_alpha(t, 0), 0.05);  // floor
}

TEST(QLearning, UpdatesRecordVisits) {
  QTable t{2};
  QLearning learner{{.alpha = 0.1, .gamma = 0.9, .alpha_min = 0.1, .visit_decay = 0.0}};
  (void)learner.update(t, 7, 0, 0.0, 8);
  (void)learner.update(t, 7, 1, 0.0, 8);
  EXPECT_EQ(t.visits(7), 2u);
}

/// A corridor table whose goal state is absorbing: its row is pinned at 0
/// and never updated, so an update into the goal bootstraps nothing.
QTable corridor_table(std::size_t goal) {
  QTable t{2, 1.5};
  t.set_q(goal, 0, 0.0);
  t.set_q(goal, 1, 0.0);
  return t;
}

// A 5-state corridor MDP: states 0..4, actions {left, right}; reward 1 at
// reaching state 4 (terminal), 0 otherwise. Q-learning with exploration
// must find the optimal policy (always right) and the correct value
// gradient gamma^distance.
TEST(QLearning, SolvesCorridorMdp) {
  constexpr std::size_t kGoal = 4;
  // Optimistic init: with zero init and greedy ties resolving to "left",
  // reaching the goal is a gambler's-ruin event epsilon alone rarely wins.
  QTable t = corridor_table(kGoal);
  QLearning learner{{.alpha = 0.2, .gamma = 0.9, .alpha_min = 0.05, .visit_decay = 0.01}};
  EpsilonGreedyPolicy policy{{0.3, 0.05, 5000}};
  Rng rng{7};
  for (int episode = 0; episode < 2000; ++episode) {
    std::size_t s = 0;
    for (int step = 0; step < 50 && s != kGoal; ++step) {
      const std::size_t a = policy.select(t, s, rng);
      const std::size_t s_next = (a == 1) ? s + 1 : (s > 0 ? s - 1 : 0);
      (void)learner.update(t, s, a, s_next == kGoal ? 1.0 : 0.0, s_next);
      s = s_next;
    }
  }
  // Optimal policy: "right" everywhere.
  for (std::size_t s = 0; s < kGoal; ++s) {
    EXPECT_EQ(t.best_action(s), 1u) << "state " << s;
  }
  // Values decay geometrically with distance from the goal.
  EXPECT_NEAR(t.q(3, 1), 1.0, 0.05);
  EXPECT_NEAR(t.q(2, 1), 0.9, 0.07);
  EXPECT_NEAR(t.q(1, 1), 0.81, 0.09);
  EXPECT_NEAR(t.q(0, 1), 0.729, 0.1);
}

/// Property: gamma sweep - the corridor's learned start-state value equals
/// gamma^3 within tolerance.
class GammaSweep : public ::testing::TestWithParam<double> {};

TEST_P(GammaSweep, CorridorStartValueMatchesTheory) {
  const double gamma = GetParam();
  QTable t = corridor_table(4);  // optimistic init (see SolvesCorridorMdp)
  QLearning learner{{.alpha = 0.2, .gamma = gamma, .alpha_min = 0.02, .visit_decay = 0.01}};
  EpsilonGreedyPolicy policy{{0.4, 0.05, 4000}};
  Rng rng{11};
  for (int episode = 0; episode < 3000; ++episode) {
    std::size_t s = 0;
    for (int step = 0; step < 50 && s != 4; ++step) {
      const std::size_t a = policy.select(t, s, rng);
      const std::size_t s_next = (a == 1) ? s + 1 : (s > 0 ? s - 1 : 0);
      (void)learner.update(t, s, a, s_next == 4 ? 1.0 : 0.0, s_next);
      s = s_next;
    }
  }
  EXPECT_NEAR(t.q(0, 1), std::pow(gamma, 3), 0.1) << "gamma=" << gamma;
}

INSTANTIATE_TEST_SUITE_P(Gammas, GammaSweep, ::testing::Values(0.5, 0.7, 0.9));

}  // namespace
}  // namespace nextgov::rl
