// Unit tests for the SoC aggregate and the Exynos 9810 factory.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "soc/soc.hpp"

namespace nextgov::soc {
namespace {

TEST(Soc, Exynos9810HasThreePaperClusters) {
  Soc soc = make_exynos9810();
  ASSERT_EQ(soc.cluster_count(), 3u);
  EXPECT_EQ(soc.big().kind(), ClusterKind::kBigCpu);
  EXPECT_EQ(soc.big().core_count(), 4u);
  EXPECT_EQ(soc.big().opps().size(), 18u);
  EXPECT_EQ(soc.little().kind(), ClusterKind::kLittleCpu);
  EXPECT_EQ(soc.little().core_count(), 4u);
  EXPECT_EQ(soc.little().opps().size(), 10u);
  EXPECT_EQ(soc.gpu().kind(), ClusterKind::kGpu);
  EXPECT_EQ(soc.gpu().core_count(), 18u);  // Mali-G72 MP18
  EXPECT_EQ(soc.gpu().opps().size(), 6u);
}

TEST(Soc, ClusterIndexConstantsMatchLayout) {
  Soc soc = make_exynos9810();
  EXPECT_EQ(&soc.cluster(ClusterIndex::kBig), &soc.big());
  EXPECT_EQ(&soc.cluster(ClusterIndex::kLittle), &soc.little());
  EXPECT_EQ(&soc.cluster(ClusterIndex::kGpu), &soc.gpu());
}

TEST(Soc, ResetRestoresIdleState) {
  Soc soc = make_exynos9810();
  soc.big().request_frequency(KiloHertz::from_mhz(2704));
  soc.gpu().set_max_cap_index(1);
  soc.reset();
  for (const auto& c : soc.clusters()) {
    EXPECT_EQ(c.freq_index(), 0u);
    EXPECT_EQ(c.max_cap_index(), c.opps().size() - 1);
  }
}

TEST(Soc, RequiresAtLeastOneCluster) {
  EXPECT_THROW(Soc(std::vector<Cluster>{}, DevicePowerParams{}), ConfigError);
}

TEST(Soc, DevicePowerFloorIsPositive) {
  Soc soc = make_exynos9810();
  EXPECT_GT(soc.device_power().display.value(), 0.0);
  EXPECT_GT(soc.device_power().rest_of_device.value(), 0.0);
}

}  // namespace
}  // namespace nextgov::soc
