// custom_governor - extending the library with your own meta-governor.
//
// The paper's Next agent is one instance of the MetaGovernor role
// (application-layer logic that moves per-cluster maxfreq caps above the
// stock kernel governor). This example implements a simple alternative - a
// reactive "thermal budget" governor that caps the big cluster by
// temperature headroom - and races it against schedutil and Next on a game.
// Use it as a template for plugging your own policies into the engine.
#include <algorithm>
#include <cstdio>

#include "governors/governor.hpp"
#include "governors/schedutil.hpp"
#include "sim/engine.hpp"
#include "sim/runner.hpp"
#include "workload/apps.hpp"

namespace {

using namespace nextgov;

/// Caps the big cluster proportionally to the remaining thermal headroom:
/// full speed when cool, lowest OPP as the junction approaches the limit.
/// (No learning, no QoS awareness - exactly the greedy scheme the paper's
/// Section II criticizes; expect it to give up FPS under load.)
class ThermalBudgetGovernor final : public governors::MetaGovernor {
 public:
  explicit ThermalBudgetGovernor(double limit_c = 70.0, double floor_c = 40.0)
      : limit_c_{limit_c}, floor_c_{floor_c} {}

  [[nodiscard]] SimTime period() const override { return SimTime::from_ms(100); }
  [[nodiscard]] std::string_view name() const override { return "thermal_budget"; }

  void control(const governors::Observation& obs, soc::Soc& soc) override {
    const double t = obs.sensors.big.value();
    const double headroom = std::clamp((limit_c_ - t) / (limit_c_ - floor_c_), 0.0, 1.0);
    auto& big = soc.big();
    const auto top = big.opps().size() - 1;
    big.set_max_cap_index(static_cast<std::size_t>(headroom * static_cast<double>(top) + 0.5));
  }

 private:
  double limit_c_;
  double floor_c_;
};

sim::SessionResult run_with_custom_meta(workload::AppId app, SimTime duration,
                                        std::uint64_t seed) {
  // Engines are assembled from parts: SoC + app + kernel governor + meta.
  sim::EngineConfig engine_cfg;
  auto engine = std::make_unique<sim::Engine>(
      soc::make_exynos9810(), workload::make_app(app, seed),
      std::make_unique<governors::SchedutilGovernor>(),
      std::make_unique<ThermalBudgetGovernor>(), engine_cfg);
  engine->run(duration);
  return sim::summarize(*engine, std::string{workload::to_string(app)}, "thermal_budget");
}

}  // namespace

int main() {
  using namespace nextgov;

  const auto app = workload::AppId::kLineage;
  const auto duration = workload::paper_session_length(app);

  const sim::SessionResult custom = run_with_custom_meta(app, duration, 4);

  sim::TrainingOptions train;
  train.max_duration = SimTime::from_seconds(1500.0);
  train.seed = 1004;
  const sim::TrainingResult trained = sim::train_next(app, core::NextConfig{}, train);

  // The catalog-governor sessions go through sim::execute(); the custom
  // meta-governor above assembles its engine by hand (it has no
  // GovernorKind), which stays possible alongside the runner.
  sim::ExperimentConfig cfg;
  cfg.duration = duration;
  cfg.seed = 4;
  sim::RunPlan plan;
  cfg.governor = sim::GovernorKind::kSchedutil;
  plan.add(app, cfg);
  cfg.governor = sim::GovernorKind::kNext;
  cfg.trained_table = &trained.table;
  plan.add(app, cfg);
  const auto results = sim::execute(plan);
  const sim::SessionResult& stock = results[0];
  const sim::SessionResult& next = results[1];

  std::printf("%-16s %12s %16s %10s\n", "governor", "avg_power_W", "peak_big_temp_C",
              "avg_FPS");
  for (const auto* r : {&stock, &custom, &next}) {
    std::printf("%-16s %12.3f %16.1f %10.1f\n", r->governor.c_str(), r->avg_power_w,
                r->peak_temp_big_c, r->avg_fps);
  }
  std::puts("\nthe greedy thermal governor trades FPS away blindly; Next holds the");
  std::puts("user's target FPS while cutting power - the paper's core argument.");
  return 0;
}
