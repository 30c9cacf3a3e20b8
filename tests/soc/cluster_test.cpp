// Unit tests for cluster DVFS state and maxfreq cap semantics.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "soc/cluster.hpp"
#include "soc/opp.hpp"
#include "literals.hpp"

namespace nextgov::soc {
namespace {

using namespace nextgov::literals;

Cluster make_big() {
  return Cluster{ClusterKind::kBigCpu, 4, exynos9810_big_opps(),
                 ClusterPowerParams{1.7e-9, 0.5, 0.018}};
}

TEST(Cluster, StartsAtLowestOppWithFullCaps) {
  const Cluster c = make_big();
  EXPECT_EQ(c.freq_index(), 0u);
  EXPECT_EQ(c.frequency(), 650_mhz);
  EXPECT_EQ(c.min_cap_index(), 0u);
  EXPECT_EQ(c.max_cap_index(), 17u);
}

TEST(Cluster, RequestFrequencyPicksCeilOpp) {
  Cluster c = make_big();
  c.request_frequency(1.0_ghz);
  EXPECT_EQ(c.frequency(), 1066_mhz);
  c.request_frequency(KiloHertz::from_mhz(5000));
  EXPECT_EQ(c.frequency(), 2704_mhz);
}

TEST(Cluster, OperatingPointClampedByCap) {
  Cluster c = make_big();
  c.set_max_cap_index(5);
  c.request_frequency(KiloHertz::from_mhz(2704));
  EXPECT_EQ(c.freq_index(), 5u);
  EXPECT_EQ(c.frequency(), c.opps()[5].frequency);
}

TEST(Cluster, LoweringCapPullsOperatingPointDown) {
  Cluster c = make_big();
  c.request_frequency(KiloHertz::from_mhz(2704));
  EXPECT_EQ(c.freq_index(), 17u);
  c.set_max_cap_index(3);
  EXPECT_EQ(c.freq_index(), 3u);  // exactly what writing scaling_max_freq does
}

TEST(Cluster, CapStepsSaturateAtTableEnds) {
  // The Next agent steps caps up and down through set_max_cap_index;
  // requests past either end of the table saturate.
  Cluster c = make_big();
  c.set_max_cap_index(c.max_cap_index() + 1);
  EXPECT_EQ(c.max_cap_index(), 17u);  // already at the top
  c.set_max_cap_index(40);
  EXPECT_EQ(c.max_cap_index(), 17u);
  c.set_max_cap_index(0);
  EXPECT_EQ(c.max_cap_index(), 0u);
  EXPECT_EQ(c.freq_index(), 0u);
  c.set_max_cap_index(c.max_cap_index() + 1);
  EXPECT_EQ(c.max_cap_index(), 1u);
}

TEST(Cluster, ResetCapsRestoresFullRange) {
  Cluster c = make_big();
  c.set_max_cap_index(2);
  c.reset_caps();
  EXPECT_EQ(c.max_cap_index(), 17u);
  EXPECT_EQ(c.min_cap_index(), 0u);
}

TEST(Cluster, RelativeSpeedIsFractionOfMax) {
  Cluster c = make_big();
  // Tabled as its reciprocal, f_max / f.
  c.request_frequency(KiloHertz::from_mhz(2704));
  EXPECT_DOUBLE_EQ(c.inv_relative_speed(), 1.0);
  c.set_freq_index(0);
  EXPECT_NEAR(c.inv_relative_speed(), 2704.0 / 650.0, 1e-12);
}

TEST(Cluster, RejectsInvalidConstruction) {
  EXPECT_THROW(Cluster(ClusterKind::kBigCpu, 0, exynos9810_big_opps(),
                       ClusterPowerParams{1e-9, 0.1, 0.01}),
               ConfigError);
  EXPECT_THROW(Cluster(ClusterKind::kBigCpu, 4, exynos9810_big_opps(),
                       ClusterPowerParams{0.0, 0.1, 0.01}),
               ConfigError);
  EXPECT_THROW(Cluster(ClusterKind::kBigCpu, 4, exynos9810_big_opps(),
                       ClusterPowerParams{1e-9, -0.1, 0.01}),
               ConfigError);
}

}  // namespace
}  // namespace nextgov::soc
