// next_state.hpp - the Next agent's state and action encodings.
//
// Section IV-B, for the Exynos 9810: state = {big CPU freq, LITTLE CPU freq,
// GPU freq, FPS_current, Target FPS, Power_current, Temperature_big,
// Temperature_device}; actions = {frequency up, frequency down, do nothing}
// per cluster - 9 actions for 3 clusters. The code is generic in the number
// of clusters m (3m actions), as the paper formulates it.
//
// The frequency component is the *current operating* index, exactly as the
// paper feeds "the current operating frequency of each cluster" into the
// state. Actions anchor on it as well: freq up/down sets the maxfreq cap
// one OPP above/below the operating point ("setting operating frequency ...
// means to set the maxfreq of the respective PE to that operating
// frequency"), and the kernel governor keeps selecting the operating point
// underneath the cap.
#pragma once

#include <cstddef>
#include <vector>

#include "core/next_config.hpp"
#include "governors/observation.hpp"
#include "rl/discretizer.hpp"

namespace nextgov::core {

/// Per-cluster action kinds, in the paper's order.
enum class ActionKind : std::size_t { kFreqUp = 0, kFreqDown = 1, kDoNothing = 2 };

struct NextAction {
  std::size_t cluster;  ///< which PE cluster the action targets
  ActionKind kind;
};

/// Flattens/unflattens (cluster, kind) <-> action index in [0, 3m).
[[nodiscard]] constexpr std::size_t action_index(std::size_t cluster, ActionKind kind) noexcept {
  return cluster * 3 + static_cast<std::size_t>(kind);
}
[[nodiscard]] constexpr NextAction action_from_index(std::size_t index) noexcept {
  return NextAction{index / 3, static_cast<ActionKind>(index % 3)};
}

/// Builds state keys from observations. Constructed once per agent from the
/// cluster OPP-table sizes; encoding is collision-free by construction.
class NextStateEncoder {
 public:
  NextStateEncoder(const NextConfig& config, std::vector<std::size_t> opp_counts);

  [[nodiscard]] std::size_t action_count() const noexcept { return opp_counts_.size() * 3; }

  /// Encodes the observation + the frame window's target FPS.
  [[nodiscard]] rl::StateKey encode(const governors::Observation& obs, int target_fps) const;

  /// Quantized FPS level for a raw value (exposed for tests/ablations).
  [[nodiscard]] std::size_t fps_level(double fps) const noexcept { return fps_bins_.bin(fps); }

 private:
  std::vector<std::size_t> opp_counts_;
  rl::LinearBins fps_bins_;
  rl::LinearBins power_bins_;
  rl::LinearBins temp_bins_;
  rl::MixedRadixPacker packer_;
};

}  // namespace nextgov::core
