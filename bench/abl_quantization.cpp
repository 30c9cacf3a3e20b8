// abl_quantization - ablation behind Fig. 6's trade-off: FPS quantization
// levels vs learned policy quality and table size. The paper picks 30
// levels as "the best training period" - i.e. the coarsest quantization
// that does not give up reward. This bench makes that trade-off visible:
// too-coarse bins alias distinct QoS demands (lower converged reward /
// higher deployed power), finer bins only add states and training time.
#include <cstdio>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "workload/apps.hpp"

int main() {
  using namespace nextgov;
  using namespace nextgov::bench;

  print_header("Ablation", "FPS quantization levels vs policy quality (Fig. 6 mechanism)");

  const std::size_t levels[] = {5, 10, 20, 30, 60};
  CsvWriter csv{out_dir() + "/abl_quantization.csv",
                {"fps_levels", "states", "mean_reward", "deployed_power_w", "deployed_fps"}};

  std::printf("%12s %10s %13s %18s %14s\n", "fps_levels", "states", "mean_reward",
              "deployed_power_W", "deployed_FPS");

  // Train all quantization levels concurrently through one TrainingPlan,
  // then run every deployed evaluation session through one runner plan.
  // Session setup (paper-length PubG) comes from the scenario library.
  const sim::ScenarioSpec spec = sim::app_scenario(workload::AppId::kPubg);
  sim::TrainingPlan tplan;
  for (std::size_t level : levels) {
    core::NextConfig config;
    config.fps_levels = level;
    tplan.add(spec.app_factory(), spec.name, config, eval_training_options(31, 1200.0));
  }
  const std::vector<sim::TrainingResult> trained = sim::execute(tplan);

  sim::RunPlan plan;
  for (std::size_t i = 0; i < std::size(levels); ++i) {
    sim::ExperimentConfig cfg = spec.experiment_config(sim::GovernorKind::kNext, 2);
    cfg.next_config.fps_levels = levels[i];
    cfg.trained_table = &trained[i].table;
    plan.add(spec.app_factory(), spec.name, cfg);
  }
  const auto results = sim::execute(plan);

  for (std::size_t i = 0; i < std::size(levels); ++i) {
    const sim::TrainingResult& tr = trained[i];
    const sim::SessionResult& r = results[i];
    std::printf("%12zu %10zu %13.3f %18.3f %14.1f%s\n", levels[i], tr.states_visited,
                tr.final_mean_reward, r.avg_power_w, r.avg_fps,
                levels[i] == 30 ? "   <- paper's choice" : "");
    csv.row({static_cast<double>(levels[i]), static_cast<double>(tr.states_visited),
             tr.final_mean_reward, r.avg_power_w, r.avg_fps});
  }
  std::printf("\nexpected shape: state count grows with levels (training cost, Fig. 6);\n"
              "policy quality saturates around 30 levels - finer buys nothing.\n");
  csv.close();
  std::printf("series -> %s/abl_quantization.csv\n\n", out_dir().c_str());
  return 0;
}
