// side.cpp - one tree's half of the A/B, compiled against that tree's
// headers (AB_MAKE_SIDE names the factory). The workloads mirror
// perfbench's phone_deploy and fleet_churn.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/next_agent.hpp"
#include "side.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/fleet_server.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "workload/apps.hpp"

namespace {

using namespace nextgov;

constexpr std::size_t kMixSize = 6;
constexpr std::uint64_t kTrainingSeed = 2020;
constexpr double kTrainBudgetS = 1500.0;

sim::ScenarioSpec mix_scenario(std::size_t i) {
  switch (i) {
    case 0: return sim::app_scenario(workload::AppId::kLineage);
    case 1: return sim::app_scenario(workload::AppId::kYoutube);
    case 2: return sim::scenario("fig1_session");
    case 3: return sim::scenario("lineage_120hz");
    case 4: return sim::scenario("pubg_hot35");
    default: return sim::scenario("spotify_bursty");
  }
}

class Tree final : public ab::Side {
 public:
  ab::Outcome phone_train() override {
    sim::TrainingPlan plan;
    for (std::size_t i = 0; i < kMixSize; ++i) {
      sim::ScenarioSpec spec = mix_scenario(i);
      spec.base_seed = sim::derive_seed(kTrainingSeed, i);
      sim::TrainingOptions base;
      base.max_duration = SimTime::from_seconds(kTrainBudgetS);
      factories_.push_back(spec.app_factory());
      plan.add(factories_.back(), spec.name,
               sim::adapt_next_config(core::NextConfig{}, spec.refresh_hz, spec.ambient),
               spec.training_options(base));
      specs_.push_back(std::move(spec));
    }
    ab::Outcome out;
    for (sim::TrainingResult& r : sim::execute(plan, {.workers = 1})) {
      out.reward += r.final_mean_reward;
      out.decisions += r.decisions;
      out.table_states += r.table.state_count();
      tables_.push_back(std::move(r.table));
    }
    return out;
  }

  std::int64_t phone_open(std::uint64_t seed, std::size_t k) override {
    const std::size_t mix = k % kMixSize;
    sim::ExperimentConfig cfg =
        specs_[mix].experiment_config(sim::GovernorKind::kNext, sim::derive_seed(seed, k));
    cfg.trained_table = &tables_[mix];
    engine_ = sim::make_engine(factories_[mix], cfg);
    return cfg.duration.us() / engine_->config().step.us();
  }

  void phone_steps(std::int64_t steps) override {
    for (std::int64_t i = 0; i < steps; ++i) engine_->step();
  }

  ab::Outcome phone_close() override {
    const core::NextAgent& agent = *engine_->next_agent();
    const ab::Outcome out{engine_->totals().energy_j, agent.mean_reward(), agent.decisions(),
                          agent.q_table().state_count()};
    engine_.reset();
    return out;
  }

  void fleet_open(std::uint64_t seed, const std::string& ring_prefix,
                  std::size_t warm_rounds) override {
    sim::FleetServerOptions o;
    o.devices = 16;
    o.round_duration = SimTime::from_seconds(10.0);
    o.round_deadline = SimTime::from_seconds(30.0);
    o.episode_length = SimTime::from_seconds(10.0);
    o.base_seed = sim::derive_seed(seed, 3000);
    o.churn.seed = sim::derive_seed(seed, 3001);
    o.churn.depart_rate = 0.05;
    o.churn.straggle_rate = 0.1;
    o.snapshot_ring = 3;
    o.snapshot_prefix = ring_prefix;
    o.delta_uploads = true;
    server_ = std::make_unique<sim::FleetServer>(workload::AppId::kFacebook, o,
                                                 sim::ExecOptions{.workers = 1});
    server_->run_rounds(warm_rounds);
  }

  ab::Outcome fleet_round() override {
    ab::Outcome out;
    server_->run_round([&](const sim::FleetServerRoundStats& rs) {
      out.reward = rs.mean_reward;
      out.table_states = rs.global_states;
    });
    out.decisions = server_->stats().total_decisions;
    return out;
  }

 private:
  std::vector<sim::ScenarioSpec> specs_;
  std::vector<sim::AppFactory> factories_;
  std::vector<rl::QTable> tables_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<sim::FleetServer> server_;
};

}  // namespace

std::unique_ptr<ab::Side> ab::AB_MAKE_SIDE() { return std::make_unique<Tree>(); }
