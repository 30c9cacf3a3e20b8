// Unit tests for epsilon-greedy action selection and decay.
#include <gtest/gtest.h>

#include <array>

#include "common/error.hpp"
#include "rl/policy.hpp"

namespace nextgov::rl {
namespace {

TEST(EpsilonSchedule, LinearDecayWithClamp) {
  const EpsilonSchedule s{1.0, 0.1, 1000};
  EXPECT_DOUBLE_EQ(s.at(0), 1.0);
  EXPECT_NEAR(s.at(500), 0.55, 1e-12);
  EXPECT_DOUBLE_EQ(s.at(1000), 0.1);
  EXPECT_DOUBLE_EQ(s.at(99999), 0.1);
}

TEST(EpsilonSchedule, ZeroDecayStepsIsConstantEnd) {
  const EpsilonSchedule s{0.5, 0.2, 0};
  EXPECT_DOUBLE_EQ(s.at(0), 0.2);
}

TEST(Policy, ValidatesSchedule) {
  EXPECT_THROW(EpsilonGreedyPolicy({1.5, 0.1, 10}), ConfigError);
  EXPECT_THROW(EpsilonGreedyPolicy({0.5, 0.6, 10}), ConfigError);
}

TEST(Policy, GreedySelectionFollowsTable) {
  QTable t{4};
  t.set_q(1, 2, 1.0);
  EpsilonGreedyPolicy policy{{0.0, 0.0, 1}};
  Rng rng{4};
  EXPECT_EQ(policy.select(t, 1, rng), 2u);
  t.set_q(1, 0, 2.0);
  EXPECT_EQ(policy.select(t, 1, rng), 0u);
}

TEST(Policy, ZeroEpsilonAlwaysExploits) {
  QTable t{4};
  t.set_q(1, 3, 1.0);
  EpsilonGreedyPolicy policy{{0.0, 0.0, 1}};
  Rng rng{1};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(policy.select(t, 1, rng), 3u);
}

TEST(Policy, FullEpsilonExploresUniformly) {
  QTable t{4};
  t.set_q(1, 0, 100.0);  // greedy would always pick 0
  EpsilonGreedyPolicy policy{{1.0, 1.0, 1}};
  Rng rng{2};
  std::array<int, 4> counts{};
  for (int i = 0; i < 40'000; ++i) ++counts[policy.select(t, 1, rng)];
  for (int c : counts) EXPECT_NEAR(c, 10'000, 500);
}

TEST(Policy, StepCounterAdvancesOnlyOnExploringSelect) {
  // Epsilon 1 -> 0 over two selections: each select() advances the counter
  // by exactly one, so the second selection still explores (epsilon 0.5)
  // and the third never does.
  QTable t{2};
  t.set_q(0, 1, 1.0);
  int explored_second = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    EpsilonGreedyPolicy policy{{1.0, 0.0, 2}};
    Rng rng{seed};
    (void)policy.select(t, 0, rng);
    if (policy.select(t, 0, rng) != 1u) ++explored_second;
    EXPECT_EQ(policy.select(t, 0, rng), 1u) << "seed " << seed;
  }
  EXPECT_GT(explored_second, 0);
}

TEST(Policy, EpsilonDecaysAcrossSelections) {
  // Epsilon 0.8 at first, 0 after 1000 selections: early picks stray from
  // the greedy action, later ones never do.
  QTable t{2};
  t.set_q(0, 1, 1.0);
  EpsilonGreedyPolicy policy{{0.8, 0.0, 1000}};
  Rng rng{5};
  int strays = 0;
  for (int i = 0; i < 100; ++i) strays += policy.select(t, 0, rng) != 1u ? 1 : 0;
  EXPECT_NEAR(strays, 40, 15);
  for (int i = 100; i < 1000; ++i) (void)policy.select(t, 0, rng);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(policy.select(t, 0, rng), 1u);
}

}  // namespace
}  // namespace nextgov::rl
