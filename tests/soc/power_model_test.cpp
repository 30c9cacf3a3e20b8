// Unit + property tests for the CMOS power model, including the calibration
// anchors documented in DESIGN.md.
#include <gtest/gtest.h>

#include "soc/power_model.hpp"
#include "soc/soc.hpp"

namespace nextgov::soc {
namespace {

TEST(PowerModel, DynamicPowerScalesLinearlyWithUtilization) {
  Soc soc = make_exynos9810();
  Cluster big = soc.big();
  big.set_freq_index(big.opps().size() - 1);
  const double full = dynamic_power(big, 1.0).value();
  const double half = dynamic_power(big, 0.5).value();
  EXPECT_NEAR(half, full / 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(dynamic_power(big, 0.0).value(), 0.0);
}

TEST(PowerModel, UtilizationIsClamped) {
  Soc soc = make_exynos9810();
  Cluster big = soc.big();
  EXPECT_DOUBLE_EQ(dynamic_power(big, -1.0).value(), 0.0);
  EXPECT_DOUBLE_EQ(dynamic_power(big, 2.0).value(), dynamic_power(big, 1.0).value());
}

TEST(PowerModel, CalibrationAnchorsAtMaxOpp) {
  // DESIGN.md: big ~5.5 W, LITTLE ~1.1 W, GPU ~2.8 W dynamic at fmax/util 1.
  Soc soc = make_exynos9810();
  for (auto& c : soc.clusters()) c.set_freq_index(c.opps().size() - 1);
  EXPECT_NEAR(dynamic_power(soc.big(), 1.0).value(), 5.5, 0.6);
  EXPECT_NEAR(dynamic_power(soc.little(), 1.0).value(), 1.13, 0.25);
  EXPECT_NEAR(dynamic_power(soc.gpu(), 1.0).value(), 2.8, 0.4);
}

TEST(PowerModel, DynamicPowerMonotoneInOppIndex) {
  // V^2 * f grows strictly along the table: higher OPP always costs more.
  Soc soc = make_exynos9810();
  for (auto& cluster : soc.clusters()) {
    double prev = -1.0;
    for (std::size_t i = 0; i < cluster.opps().size(); ++i) {
      cluster.set_freq_index(i);
      const double p = dynamic_power(cluster, 1.0).value();
      EXPECT_GT(p, prev) << "cluster kind " << static_cast<int>(cluster.kind()) << " OPP " << i;
      prev = p;
    }
  }
}

TEST(PowerModel, LeakageGrowsExponentiallyWithTemperature) {
  Soc soc = make_exynos9810();
  Cluster big = soc.big();
  big.set_freq_index(big.opps().size() - 1);
  const double cold = leakage_power(big, Celsius{25.0}).value();
  const double warm = leakage_power(big, Celsius{65.0}).value();
  const double hot = leakage_power(big, Celsius{105.0}).value();
  EXPECT_GT(warm, cold);
  // Equal temperature steps multiply leakage by the same factor.
  EXPECT_NEAR(warm / cold, hot / warm, 1e-9);
  // beta = 0.018 -> 40 K doubles leakage (e^0.72 ~ 2.05).
  EXPECT_NEAR(warm / cold, 2.05, 0.03);
}

TEST(PowerModel, LeakageScalesWithVoltage) {
  Soc soc = make_exynos9810();
  Cluster big = soc.big();
  big.set_freq_index(0);
  const double low_v = leakage_power(big, Celsius{50.0}).value();
  big.set_freq_index(big.opps().size() - 1);
  const double high_v = leakage_power(big, Celsius{50.0}).value();
  EXPECT_NEAR(high_v / low_v, 1.08 / 0.70, 1e-9);
}

TEST(PowerModel, ClusterPowerIsDynamicPlusLeakage) {
  Soc soc = make_exynos9810();
  Cluster gpu = soc.gpu();
  gpu.set_freq_index(3);
  const ClusterLoad load{0.6, 0.8};
  const double total = cluster_power(gpu, load, Celsius{45.0}).value();
  EXPECT_NEAR(total,
              dynamic_power(gpu, 0.6).value() + leakage_power(gpu, Celsius{45.0}).value(),
              1e-12);
}

/// Property sweep: power is monotone in utilization at every OPP of every
/// cluster (parameterized across the cluster index).
class PowerMonotoneInUtil : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PowerMonotoneInUtil, AcrossAllOppsAndLoads) {
  Soc soc = make_exynos9810();
  auto& cluster = soc.cluster(GetParam());
  for (std::size_t i = 0; i < cluster.opps().size(); ++i) {
    cluster.set_freq_index(i);
    double prev = -1.0;
    for (double u = 0.0; u <= 1.0; u += 0.1) {
      const double p = cluster_power(cluster, ClusterLoad{u, u}, Celsius{40.0}).value();
      EXPECT_GE(p, prev);
      prev = p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Clusters, PowerMonotoneInUtil, ::testing::Values(0u, 1u, 2u));

TEST(DevicePower, EnvelopeMatchesPaperMagnitudes) {
  // All clusters flat out at a hot junction must land near the ~12 W burst
  // envelope used for PPDW_worst; idle floor near ~1.4 W.
  Soc soc = make_exynos9810();
  double burst = soc.device_power().display.value() + soc.device_power().rest_of_device.value();
  for (auto& c : soc.clusters()) {
    c.set_freq_index(c.opps().size() - 1);
    burst += cluster_power(c, ClusterLoad{1.0, 1.0}, Celsius{85.0}).value();
  }
  EXPECT_GT(burst, 10.0);
  EXPECT_LT(burst, 14.5);

  double idle = soc.device_power().display.value() + soc.device_power().rest_of_device.value();
  for (auto& c : soc.clusters()) {
    c.set_freq_index(0);
    idle += cluster_power(c, ClusterLoad{0.02, 0.05}, Celsius{25.0}).value();
  }
  EXPECT_GT(idle, 1.0);
  EXPECT_LT(idle, 2.0);
}

}  // namespace
}  // namespace nextgov::soc
