// Unit tests for the performance/powersave/ondemand baselines.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "governors/simple_governors.hpp"
#include "soc/soc.hpp"

namespace nextgov::governors {
namespace {

Observation obs_with_busy(const soc::Soc& soc, double busy) {
  Observation obs;
  obs.clusters.resize(soc.cluster_count());
  for (std::size_t i = 0; i < soc.cluster_count(); ++i) {
    const auto& c = soc.cluster(i);
    obs.clusters[i].freq_index = c.freq_index();
    obs.clusters[i].cap_index = c.max_cap_index();
    obs.clusters[i].opp_count = c.opps().size();
    obs.clusters[i].frequency = c.frequency();
    obs.clusters[i].max_frequency = c.opps().highest().frequency;
    obs.clusters[i].busy_hot = busy;
    obs.clusters[i].busy_avg = busy;
  }
  return obs;
}

TEST(Performance, PinsEveryClusterAtMax) {
  soc::Soc soc = soc::make_exynos9810();
  PerformanceGovernor gov;
  gov.control(obs_with_busy(soc, 0.0), soc);
  for (const auto& c : soc.clusters()) EXPECT_EQ(c.freq_index(), c.opps().size() - 1);
}

TEST(Performance, RespectsCaps) {
  soc::Soc soc = soc::make_exynos9810();
  soc.big().set_max_cap_index(3);
  PerformanceGovernor gov;
  gov.control(obs_with_busy(soc, 1.0), soc);
  EXPECT_EQ(soc.big().freq_index(), 3u);
}

TEST(Powersave, PinsEveryClusterAtMin) {
  soc::Soc soc = soc::make_exynos9810();
  for (auto& c : soc.clusters()) c.set_freq_index(c.opps().size() - 1);
  PowersaveGovernor gov;
  gov.control(obs_with_busy(soc, 1.0), soc);
  for (const auto& c : soc.clusters()) EXPECT_EQ(c.freq_index(), 0u);
}

TEST(Ondemand, JumpsToMaxAboveThreshold) {
  soc::Soc soc = soc::make_exynos9810();
  OndemandGovernor gov{0.8};
  gov.control(obs_with_busy(soc, 0.9), soc);
  EXPECT_EQ(soc.big().freq_index(), soc.big().opps().size() - 1);
}

TEST(Ondemand, StepsDownWhenProjectedUtilStaysLow) {
  soc::Soc soc = soc::make_exynos9810();
  soc.big().set_freq_index(10);
  OndemandGovernor gov{0.8};
  gov.control(obs_with_busy(soc, 0.2), soc);
  EXPECT_EQ(soc.big().freq_index(), 9u);
}

TEST(Ondemand, HoldsWhenStepDownWouldSaturate) {
  soc::Soc soc = soc::make_exynos9810();
  soc.big().set_freq_index(10);  // 1794 MHz; one step down is 1690 MHz
  // busy 0.78 at 1794 -> projected 0.78*1794/1690 = 0.828 > 0.8 -> hold.
  OndemandGovernor gov{0.8};
  gov.control(obs_with_busy(soc, 0.78), soc);
  EXPECT_EQ(soc.big().freq_index(), 10u);
}

TEST(Ondemand, ValidatesParameters) {
  EXPECT_THROW(OndemandGovernor(0.0), ConfigError);
  EXPECT_THROW(OndemandGovernor(1.5), ConfigError);
  EXPECT_THROW(OndemandGovernor(0.8, SimTime::zero()), ConfigError);
}

}  // namespace
}  // namespace nextgov::governors
