// Unit tests for the Next agent: reward shape, action semantics, modes,
// persistence.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/next_agent.hpp"
#include "soc/soc.hpp"
#include "literals.hpp"
#include "temp_path.hpp"

namespace nextgov::core {
namespace {

using namespace nextgov::literals;

governors::Observation obs_for(const soc::Soc& soc, double fps, double power, double t_big,
                               double t_dev, double drop_rate = 0.0) {
  governors::Observation obs;
  obs.clusters.resize(soc.cluster_count());
  for (std::size_t i = 0; i < soc.cluster_count(); ++i) {
    const auto& c = soc.cluster(i);
    obs.clusters[i].freq_index = c.freq_index();
    obs.clusters[i].cap_index = c.max_cap_index();
    obs.clusters[i].opp_count = c.opps().size();
    obs.clusters[i].frequency = c.frequency();
    obs.clusters[i].max_frequency = c.opps().highest().frequency;
  }
  obs.fps = Fps{fps};
  obs.drop_rate = drop_rate;
  obs.sensors.power = Watts{power};
  obs.sensors.big = Celsius{t_big};
  obs.sensors.device = Celsius{t_dev};
  return obs;
}

TEST(NextAgent, FactorySizesFromSoc) {
  const soc::Soc soc = soc::make_exynos9810();
  auto agent = make_next_agent(soc, NextConfig{}, 1);
  EXPECT_EQ(agent->encoder().action_count(), 9u);
  EXPECT_EQ(agent->period(), 100_ms);
  EXPECT_EQ(agent->sample_period(), 25_ms);
  EXPECT_EQ(agent->name(), "next");
}

TEST(NextAgent, RewardPeaksWhenFpsEqualsTarget) {
  const soc::Soc soc = soc::make_exynos9810();
  auto agent = make_next_agent(soc, NextConfig{}, 1);
  const double on_target = agent->reward(obs_for(soc, 30.0, 3.0, 45.0, 30.0), 30);
  const double below = agent->reward(obs_for(soc, 15.0, 3.0, 45.0, 30.0), 30);
  const double above = agent->reward(obs_for(soc, 55.0, 3.0, 45.0, 30.0), 30);
  EXPECT_GT(on_target, below);
  EXPECT_GT(on_target, above);
}

TEST(NextAgent, RewardPrefersLowerPowerAtSameQoS) {
  const soc::Soc soc = soc::make_exynos9810();
  auto agent = make_next_agent(soc, NextConfig{}, 1);
  const double hot = agent->reward(obs_for(soc, 60.0, 6.0, 70.0, 40.0), 60);
  const double cool = agent->reward(obs_for(soc, 60.0, 3.5, 50.0, 33.0), 60);
  EXPECT_GT(cool, hot);
}

TEST(NextAgent, FrameDropsCrushReward) {
  // The jank gate: a configuration delivering the target while missing
  // deadlines (stutter) must score far below a clean one.
  const soc::Soc soc = soc::make_exynos9810();
  auto agent = make_next_agent(soc, NextConfig{}, 1);
  const double clean = agent->reward(obs_for(soc, 40.0, 3.0, 45.0, 30.0, 0.0), 40);
  const double janky = agent->reward(obs_for(soc, 40.0, 3.0, 45.0, 30.0, 20.0), 40);
  EXPECT_LT(janky, clean * 0.2);
}

TEST(NextAgent, IdleTargetPaysForSheddingPower) {
  const soc::Soc soc = soc::make_exynos9810();
  auto agent = make_next_agent(soc, NextConfig{}, 1);
  const double wasteful = agent->reward(obs_for(soc, 0.0, 3.8, 45.0, 30.0), 0);
  const double frugal = agent->reward(obs_for(soc, 0.0, 1.5, 30.0, 25.0), 0);
  EXPECT_GT(frugal, wasteful);
}

TEST(NextAgent, IdleRewardCannotBeatHealthyTracking) {
  // Guard against the starve-to-idle exploit: perfectly tracking a real
  // target at sane power beats the best possible idle reward when power
  // cannot actually reach zero (games keep >1.5 W background).
  const soc::Soc soc = soc::make_exynos9810();
  auto agent = make_next_agent(soc, NextConfig{}, 1);
  const double healthy_game = agent->reward(obs_for(soc, 60.0, 3.6, 52.0, 34.0), 60);
  const double starved_game = agent->reward(obs_for(soc, 0.0, 2.0, 35.0, 28.0), 0);
  EXPECT_GT(healthy_game, starved_game);
}

TEST(NextAgent, FrameWindowFeedsTarget) {
  const soc::Soc soc = soc::make_exynos9810();
  auto agent = make_next_agent(soc, NextConfig{}, 1);
  EXPECT_EQ(agent->current_target_fps(), 0);
  for (int i = 0; i < 100; ++i) agent->on_sample(obs_for(soc, 60.0, 3.0, 40.0, 30.0));
  EXPECT_EQ(agent->current_target_fps(), 60);
}

TEST(NextAgent, ActionsActuateMaxfreqAroundOperatingPoint) {
  soc::Soc soc = soc::make_exynos9810();
  NextConfig cfg;
  cfg.epsilon = {0.0, 0.0, 1};  // deterministic greedy
  auto agent = make_next_agent(soc, cfg, 1);
  agent->set_mode(AgentMode::kTraining);
  // Operating point mid-table; an untrained greedy agent picks action 0 =
  // "big frequency up": cap must move to op+1.
  soc.big().set_max_cap_index(17);
  soc.big().set_freq_index(5);
  auto obs = obs_for(soc, 30.0, 3.0, 45.0, 30.0);
  agent->control(obs, soc);
  EXPECT_EQ(soc.big().max_cap_index(), 6u);
}

TEST(NextAgent, DeployedModeNeverWritesQTable) {
  soc::Soc soc = soc::make_exynos9810();
  auto agent = make_next_agent(soc, NextConfig{}, 1);
  agent->set_mode(AgentMode::kDeployed);
  for (int i = 0; i < 50; ++i) {
    auto obs = obs_for(soc, 30.0, 3.0, 45.0, 30.0);
    agent->control(obs, soc);
  }
  EXPECT_EQ(agent->q_table().total_visits(), 0u);
  EXPECT_EQ(agent->decisions(), 50u);
}

TEST(NextAgent, TrainingModeLearns) {
  soc::Soc soc = soc::make_exynos9810();
  auto agent = make_next_agent(soc, NextConfig{}, 1);
  agent->set_mode(AgentMode::kTraining);
  for (int i = 0; i < 50; ++i) {
    auto obs = obs_for(soc, 30.0, 3.0, 45.0, 30.0);
    agent->control(obs, soc);
  }
  EXPECT_GT(agent->q_table().total_visits(), 0u);
  EXPECT_GT(agent->q_table().state_count(), 0u);
}

TEST(NextAgent, QTablePersistenceRoundTrip) {
  const std::string path = test::unique_temp_path("next_agent_table.bin");
  soc::Soc soc = soc::make_exynos9810();
  auto agent = make_next_agent(soc, NextConfig{}, 1);
  agent->set_mode(AgentMode::kTraining);
  for (int i = 0; i < 200; ++i) {
    auto obs = obs_for(soc, 30.0 + (i % 3), 3.0, 45.0, 30.0);
    agent->control(obs, soc);
  }
  agent->q_table().save(path);

  auto fresh = make_next_agent(soc, NextConfig{}, 2);
  fresh->set_q_table(rl::QTable::load(path));
  EXPECT_EQ(fresh->q_table().state_count(), agent->q_table().state_count());
  std::remove(path.c_str());
}

TEST(NextAgent, RejectsMismatchedTable) {
  const soc::Soc soc = soc::make_exynos9810();
  auto agent = make_next_agent(soc, NextConfig{}, 1);
  EXPECT_THROW(agent->set_q_table(rl::QTable{4}), ConfigError);
}

TEST(NextAgent, ResetKeepsLearnedTable) {
  soc::Soc soc = soc::make_exynos9810();
  auto agent = make_next_agent(soc, NextConfig{}, 1);
  agent->set_mode(AgentMode::kTraining);
  for (int i = 0; i < 100; ++i) {
    auto obs = obs_for(soc, 30.0, 3.0, 45.0, 30.0);
    agent->on_sample(obs);
    agent->control(obs, soc);
  }
  const auto states = agent->q_table().state_count();
  agent->reset();
  EXPECT_EQ(agent->q_table().state_count(), states);
  EXPECT_EQ(agent->current_target_fps(), 0);  // window cleared
}

}  // namespace
}  // namespace nextgov::core
