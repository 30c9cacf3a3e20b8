// soc.hpp - the MPSoC aggregate and the Exynos 9810 factory.
//
// A Soc owns the PE clusters (the paper's "m PE clusters", m=3 on the
// Exynos 9810) plus the non-compute device power floor. It is a pure
// hardware description; time, heat and workloads live in sim/, thermal/ and
// workload/.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "soc/cluster.hpp"
#include "soc/power_model.hpp"

namespace nextgov::soc {

/// Stable identifiers for the three Exynos 9810 clusters; generic code
/// iterates clusters() instead of using these.
struct ClusterIndex {
  static constexpr std::size_t kBig = 0;
  static constexpr std::size_t kLittle = 1;
  static constexpr std::size_t kGpu = 2;
};

class Soc {
 public:
  Soc(std::vector<Cluster> clusters, DevicePowerParams device_power);

  [[nodiscard]] std::size_t cluster_count() const noexcept { return clusters_.size(); }
  [[nodiscard]] Cluster& cluster(std::size_t i) noexcept {
    NEXTGOV_ASSERT(i < clusters_.size());
    return clusters_[i];
  }
  [[nodiscard]] const Cluster& cluster(std::size_t i) const noexcept {
    NEXTGOV_ASSERT(i < clusters_.size());
    return clusters_[i];
  }
  [[nodiscard]] std::vector<Cluster>& clusters() noexcept { return clusters_; }
  [[nodiscard]] const std::vector<Cluster>& clusters() const noexcept { return clusters_; }

  [[nodiscard]] Cluster& big() noexcept { return clusters_[ClusterIndex::kBig]; }
  [[nodiscard]] Cluster& little() noexcept { return clusters_[ClusterIndex::kLittle]; }
  [[nodiscard]] Cluster& gpu() noexcept { return clusters_[ClusterIndex::kGpu]; }

  [[nodiscard]] const DevicePowerParams& device_power() const noexcept { return device_power_; }

  /// Resets all clusters to their lowest OPP with full cap range (device
  /// idle state at session start).
  void reset() noexcept;

 private:
  std::vector<Cluster> clusters_;
  DevicePowerParams device_power_;
};

/// Builds the Exynos 9810 model used throughout the reproduction:
/// 4x Mongoose-3 big, 4x Cortex-A55 LITTLE, Mali-G72 MP18 GPU, with power
/// constants calibrated so the device envelope spans ~1.2 W (idle) to ~12 W
/// (all-max burst), matching the magnitudes in the paper's Figs. 3/7.
[[nodiscard]] Soc make_exynos9810();

}  // namespace nextgov::soc
