// Unit tests for the OPP tables, including the paper's exact Exynos 9810
// frequency lists (Section III-A).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "soc/opp.hpp"
#include "literals.hpp"

namespace nextgov::soc {
namespace {

using namespace nextgov::literals;

/// True when `f` is one of the table's operating points.
bool lists(const OppTable& t, KiloHertz f) {
  for (const OppPoint& p : t.points()) {
    if (p.frequency == f) return true;
  }
  return false;
}

TEST(OppTable, Exynos9810BigHas18PaperLevels) {
  const OppTable t = exynos9810_big_opps();
  ASSERT_EQ(t.size(), 18u);
  EXPECT_EQ(t[0].frequency, 650_mhz);
  EXPECT_EQ(t.highest().frequency, 2704_mhz);
  // Spot-check interior levels straight from the paper's list.
  EXPECT_TRUE(lists(t, 2314_mhz));
  EXPECT_TRUE(lists(t, 1469_mhz));
  EXPECT_TRUE(lists(t, 962_mhz));
  EXPECT_FALSE(lists(t, 1000_mhz));
}

TEST(OppTable, Exynos9810LittleHas10PaperLevels) {
  const OppTable t = exynos9810_little_opps();
  ASSERT_EQ(t.size(), 10u);
  EXPECT_EQ(t[0].frequency, 455_mhz);
  EXPECT_EQ(t.highest().frequency, 1794_mhz);
  EXPECT_TRUE(lists(t, 1053_mhz));
  EXPECT_TRUE(lists(t, 598_mhz));
}

TEST(OppTable, Exynos9810GpuHas6PaperLevels) {
  const OppTable t = exynos9810_gpu_opps();
  ASSERT_EQ(t.size(), 6u);
  EXPECT_EQ(t[0].frequency, 260_mhz);
  EXPECT_EQ(t.highest().frequency, 572_mhz);
  EXPECT_TRUE(lists(t, 338_mhz));
}

TEST(OppTable, VoltageMonotoneWithFrequency) {
  for (const OppTable& t :
       {exynos9810_big_opps(), exynos9810_little_opps(), exynos9810_gpu_opps()}) {
    for (std::size_t i = 1; i < t.size(); ++i) {
      EXPECT_GT(t[i].frequency, t[i - 1].frequency);
      EXPECT_GE(t[i].voltage, t[i - 1].voltage);
    }
  }
}

TEST(OppTable, CeilIndexSelectsLowestSufficientOpp) {
  const OppTable t = exynos9810_big_opps();
  EXPECT_EQ(t[t.ceil_index(1000_mhz)].frequency, 1066_mhz);
  EXPECT_EQ(t.ceil_index(100_mhz), 0u);
  EXPECT_EQ(t.ceil_index(650_mhz), 0u);
  EXPECT_EQ(t.ceil_index(9999_mhz), t.size() - 1);  // saturates at fmax
  EXPECT_EQ(t[t.ceil_index(2653_mhz)].frequency, 2704_mhz);
}

TEST(OppTable, RejectsInvalidConstruction) {
  EXPECT_THROW(OppTable{{}}, ConfigError);
  // Decreasing frequency.
  EXPECT_THROW(OppTable({{1000_mhz, Volts{0.8}}, {900_mhz, Volts{0.9}}}), ConfigError);
  // Duplicate frequency.
  EXPECT_THROW(OppTable({{1000_mhz, Volts{0.8}}, {1000_mhz, Volts{0.9}}}), ConfigError);
  // Decreasing voltage.
  EXPECT_THROW(OppTable({{900_mhz, Volts{0.9}}, {1000_mhz, Volts{0.8}}}), ConfigError);
  // Non-positive values.
  EXPECT_THROW(OppTable({{KiloHertz{0.0}, Volts{0.8}}}), ConfigError);
  EXPECT_THROW(OppTable({{900_mhz, Volts{0.0}}}), ConfigError);
}

TEST(OppTable, FromMhzDescendingBuildsAffineVoltageRamp) {
  const double mhz[] = {1000.0, 800.0, 600.0};
  const OppTable t = OppTable::from_mhz_descending(mhz, Volts{0.6}, Volts{1.0});
  ASSERT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t[0].voltage.value(), 0.6);
  EXPECT_DOUBLE_EQ(t[1].voltage.value(), 0.8);
  EXPECT_DOUBLE_EQ(t[2].voltage.value(), 1.0);
}

TEST(OppTable, FromMhzRejectsBadVoltageRamp) {
  const double mhz[] = {1000.0, 600.0};
  EXPECT_THROW(OppTable::from_mhz_descending(mhz, Volts{1.0}, Volts{0.6}), ConfigError);
  EXPECT_THROW(OppTable::from_mhz_descending({mhz, 0}, Volts{0.6}, Volts{1.0}), ConfigError);
}

}  // namespace
}  // namespace nextgov::soc
