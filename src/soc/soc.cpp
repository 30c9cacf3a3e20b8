#include "soc/soc.hpp"

namespace nextgov::soc {

Soc::Soc(std::vector<Cluster> clusters, DevicePowerParams device_power)
    : clusters_{std::move(clusters)}, device_power_{device_power} {
  require(!clusters_.empty(), "SoC must have at least one cluster");
}

void Soc::reset() noexcept {
  for (auto& c : clusters_) {
    c.reset_caps();
    c.set_freq_index(0);
  }
}

Soc make_exynos9810() {
  std::vector<Cluster> clusters;
  // Calibration (see DESIGN.md and tests/soc/power_calibration_test.cpp):
  //   big    @2704 MHz, 1.08 V, util 1.0 -> ~5.5 W dynamic
  //   LITTLE @1794 MHz, 0.95 V, util 1.0 -> ~0.80 W dynamic
  //   GPU    @572 MHz,  0.90 V, util 1.0 -> ~2.80 W dynamic
  // Leakage at max V and 85 C: big ~1.2 W, LITTLE ~0.11 W, GPU ~0.55 W.
  clusters.emplace_back(ClusterKind::kBigCpu, 4, exynos9810_big_opps(),  // Mongoose-3
                        ClusterPowerParams{1.744e-9, 0.55, 0.018});
  clusters.emplace_back(ClusterKind::kLittleCpu, 4, exynos9810_little_opps(),  // Cortex-A55
                        ClusterPowerParams{0.70e-9, 0.055, 0.018});
  clusters.emplace_back(ClusterKind::kGpu, 18, exynos9810_gpu_opps(),  // Mali-G72 MP18
                        ClusterPowerParams{6.04e-9, 0.28, 0.018});
  return Soc{std::move(clusters), DevicePowerParams{}};
}

}  // namespace nextgov::soc
