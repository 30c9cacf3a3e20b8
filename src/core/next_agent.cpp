#include "core/next_agent.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "soc/soc.hpp"

namespace nextgov::core {

namespace {
std::vector<std::size_t> validated(std::vector<std::size_t> opp_counts) {
  require(!opp_counts.empty(), "NextAgent needs at least one cluster");
  return opp_counts;
}
}  // namespace

NextAgent::NextAgent(NextConfig config, std::vector<std::size_t> opp_counts, std::uint64_t seed)
    : config_{config},
      encoder_{config, validated(std::move(opp_counts))},
      table_{encoder_.action_count(), config.optimistic_q},
      learner_{config.qlearning},
      policy_{config.epsilon},
      rng_{seed},
      window_{config.sample_period, config.frame_window} {}

void NextAgent::reset() {
  window_.clear();
  prev_state_.reset();
  // The learned table and policy decay survive resets:
  // a reset is "the app was closed and reopened", not "forget everything".
}

void NextAgent::set_q_table(rl::QTable table) {
  require(table.action_count() == encoder_.action_count(),
          "Q-table action count does not match this agent");
  table_ = std::move(table);
}

void NextAgent::load_q_table(const std::string& path) { set_q_table(rl::QTable::load(path)); }

void NextAgent::on_sample(const governors::Observation& obs) { window_.add_sample(obs.fps); }

double NextAgent::reward(const governors::Observation& obs, int target_fps) const noexcept {
  // Missed VSync deadlines are "lag or stutter and hence reduced QoS"
  // (Section I); they gate the whole reward. Unlike the frame-window mode,
  // the drop rate cannot drift along when the agent degrades QoS slowly.
  const double jank = std::exp(-obs.drop_rate / config_.drop_scale);
  const double power = obs.sensors.power.value();
  if (target_fps <= 0) {
    // User demands no frames: pay for shedding power.
    return jank * std::clamp(1.0 - power / config_.idle_power_scale_w, 0.0, 1.0);
  }
  const double fps = obs.fps.value();
  const double target = static_cast<double>(target_fps);
  const double sigma =
      std::max(config_.track_sigma_floor, config_.track_sigma_frac * target);
  const double miss = (fps - target) / sigma;
  const double tracking = std::exp(-0.5 * miss * miss);
  switch (config_.reward_metric) {
    case RewardMetric::kFpsOnly:
      return jank * tracking;
    case RewardMetric::kPpw: {
      const double ppw = fps / std::max(power, 1e-3);
      return jank * tracking * ppdw_score(ppw, config_.ppw_ref);
    }
    case RewardMetric::kPpdw:
      break;
  }
  const double raw =
      ppdw(fps, obs.sensors.power, obs.sensors.big, config_.ppdw_bounds.ambient);
  const double bounded = clamp_to_bounds(raw, config_.ppdw_bounds);
  return jank * tracking * ppdw_score(bounded, config_.ppdw_ref);
}

void NextAgent::apply_action(std::size_t action, soc::Soc& soc) noexcept {
  // Section IV-B: "setting operating frequency (up, down and do nothing)
  // means to set the maxfreq of the respective PE to that operating
  // frequency" - the desired frequency is one OPP above/below the *current
  // operating point*, and the cap is moved there. Anchoring on the
  // operating point (not the previous cap) lets a single "down" action
  // collapse a wide idle cap onto the frequency the workload actually
  // needs, which is what makes minutes-scale training feasible.
  const NextAction a = action_from_index(action);
  NEXTGOV_ASSERT(a.cluster < soc.cluster_count());
  auto& cluster = soc.cluster(a.cluster);
  const std::size_t op = cluster.freq_index();
  const std::size_t top = cluster.opps().size() - 1;
  switch (a.kind) {
    case ActionKind::kFreqUp:
      cluster.set_max_cap_index(std::min(op + config_.cap_up_step, top));
      break;
    case ActionKind::kFreqDown:
      cluster.set_max_cap_index(op > config_.cap_down_step ? op - config_.cap_down_step : 0);
      break;
    case ActionKind::kDoNothing:
      break;
  }
}

void NextAgent::control(const governors::Observation& obs, soc::Soc& soc) {
  const int target = window_.target_fps();
  const rl::StateKey state = encoder_.encode(obs, target);
  if (mode_ == AgentMode::kTraining && prev_state_.has_value()) {
    // The reward for the previous action is judged by what it led to: the
    // observation we are looking at now.
    const double r = reward(obs, target);
    last_reward_ = r;
    reward_sum_ += r;
    learner_.update(table_, *prev_state_, prev_action_, r, state);
  } else if (mode_ == AgentMode::kDeployed) {
    last_reward_ = reward(obs, target);
    reward_sum_ += last_reward_;
  }
  // Deployment fallback for never-trained states: "do nothing" (index 2 on
  // cluster 0) - an untrained corner must not push caps around.
  const std::size_t hold = action_index(0, ActionKind::kDoNothing);
  const std::size_t action = (mode_ == AgentMode::kTraining)
                                 ? policy_.select(table_, state, rng_)
                                 : table_.best_action(state, hold);
  apply_action(action, soc);
  prev_state_ = state;
  prev_action_ = action;
  ++decisions_;
}

double NextAgent::mean_reward() const noexcept {
  return decisions_ > 0 ? reward_sum_ / static_cast<double>(decisions_) : 0.0;
}

std::unique_ptr<NextAgent> make_next_agent(const soc::Soc& soc, NextConfig config,
                                           std::uint64_t seed) {
  std::vector<std::size_t> counts;
  counts.reserve(soc.cluster_count());
  for (const auto& c : soc.clusters()) counts.push_back(c.opps().size());
  return std::make_unique<NextAgent>(config, std::move(counts), seed);
}

}  // namespace nextgov::core
