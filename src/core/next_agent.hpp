// next_agent.hpp - Next: the paper's user-interaction-aware RL DVFS agent.
//
// The agent (Section IV):
//   * samples the frame rate every 25 ms into a 4 s frame window and takes
//     the mode as the session's target FPS (user QoS demand);
//   * every 100 ms observes {cluster freqs, FPS_current, Target FPS, power,
//     T_big, T_device}, picks one of 3m actions (freq up / down / hold per
//     cluster) by Q-learning, and applies it to the cluster's *maxfreq*;
//   * is rewarded for hitting the target FPS at the best PPDW (Eq. 4).
//
// Reward construction (documented deviation - the paper gives Eq. 4 but not
// the tracking mechanics):
//   target > 0:  r = exp(-0.5*((FPS-target)/sigma)^2) * score(PPDW)
//                sigma = max(sigma_floor, sigma_frac*target)
//                score(x) = x/(x+ref)  - monotone in PPDW, range [0,1)
//   target == 0: r = (1 - P/idle_scale)_+ : the user wants nothing rendered,
//                so the agent is paid for shedding power (the splash/idle
//                waste case of Section II).
// The multiplicative form keeps the maximum at FPS == Target FPS (the Eq. 4
// goal) while PPDW orders configurations that tie on QoS.
//
// Training happens online exactly as deployed, with epsilon-greedy
// exploration; "fully trained" evaluation switches to greedy. Q-tables
// persist per app (Section IV-B) via save()/load().
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/frame_window.hpp"
#include "core/next_config.hpp"
#include "core/next_state.hpp"
#include "governors/governor.hpp"
#include "rl/policy.hpp"
#include "rl/qlearning.hpp"
#include "rl/qtable.hpp"

namespace nextgov::core {

enum class AgentMode {
  kTraining,  ///< epsilon-greedy exploration + Q updates
  kDeployed,  ///< greedy on the learned table, no updates
};

class NextAgent final : public governors::MetaGovernor {
 public:
  /// `opp_counts` - OPP-table size per cluster, in soc::Soc order.
  NextAgent(NextConfig config, std::vector<std::size_t> opp_counts, std::uint64_t seed);

  // --- governors::MetaGovernor ---
  [[nodiscard]] SimTime period() const override { return config_.control_period; }
  [[nodiscard]] SimTime sample_period() const override { return config_.sample_period; }
  void on_sample(const governors::Observation& obs) override;
  void control(const governors::Observation& obs, soc::Soc& soc) override;
  void reset() override;
  [[nodiscard]] std::string_view name() const override { return "next"; }

  // --- mode & persistence ---
  void set_mode(AgentMode mode) noexcept { mode_ = mode; }
  [[nodiscard]] AgentMode mode() const noexcept { return mode_; }
  /// Installs a previously trained table (e.g. loaded from disk or merged
  /// by the federated trainer).
  void set_q_table(rl::QTable table);
  [[nodiscard]] const rl::QTable& q_table() const noexcept { return table_; }
  void save_q_table(const std::string& path) const { table_.save(path); }
  void load_q_table(const std::string& path);

  // --- introspection / evaluation hooks ---
  [[nodiscard]] int current_target_fps() const { return window_.target_fps(); }
  [[nodiscard]] const NextConfig& config() const noexcept { return config_; }
  [[nodiscard]] const NextStateEncoder& encoder() const noexcept { return encoder_; }
  [[nodiscard]] std::uint64_t decisions() const noexcept { return decisions_; }
  [[nodiscard]] double last_reward() const noexcept { return last_reward_; }
  [[nodiscard]] double mean_reward() const noexcept;

  /// The reward function, exposed for tests and the ablation benches.
  [[nodiscard]] double reward(const governors::Observation& obs, int target_fps) const noexcept;

 private:
  void apply_action(std::size_t action, soc::Soc& soc) noexcept;

  NextConfig config_;
  NextStateEncoder encoder_;
  rl::QTable table_;
  rl::QLearning learner_;
  rl::EpsilonGreedyPolicy policy_;
  Rng rng_;
  FrameWindow window_;
  AgentMode mode_{AgentMode::kTraining};

  std::optional<rl::StateKey> prev_state_;
  std::size_t prev_action_{0};

  std::uint64_t decisions_{0};
  double reward_sum_{0.0};
  double last_reward_{0.0};
};

/// Convenience: builds an agent sized for `soc`'s cluster layout.
[[nodiscard]] std::unique_ptr<NextAgent> make_next_agent(const soc::Soc& soc, NextConfig config,
                                                         std::uint64_t seed);

}  // namespace nextgov::core
