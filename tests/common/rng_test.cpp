// Unit + property tests for the deterministic random streams.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace nextgov {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng{11};
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng{13};
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 60'000; ++i) {
    const auto v = rng.uniform_int(0, 5);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 5);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int c : counts) EXPECT_NEAR(c, 10'000, 600);
}

TEST(Rng, BernoulliRespectsProbability) {
  Rng rng{17};
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng{19};
  const int n = 200'000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.2);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng{23};
  for (int i = 0; i < 10'000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, ForkedStreamsAreIndependentOfParentConsumption) {
  // The fork draws once from the parent, but two forks with different salts
  // from identically-seeded parents must match.
  Rng parent1{99};
  Rng parent2{99};
  Rng child1 = parent1.fork(1);
  Rng child2 = parent2.fork(1);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(Rng, ForkSaltsProduceDistinctStreams) {
  Rng parent{99};
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(SplitMix, KnownGoodSequenceIsStable) {
  // Regression anchor: changing the generator silently would invalidate
  // every recorded experiment.
  SplitMix64 sm{0};
  const std::uint64_t first = sm.next();
  SplitMix64 sm2{0};
  EXPECT_EQ(first, sm2.next());
  EXPECT_NE(first, sm.next());
}

}  // namespace
}  // namespace nextgov
