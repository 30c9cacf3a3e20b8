// abl_quantization - ablation behind Fig. 6's trade-off: FPS quantization
// levels vs learned policy quality and table size. The paper picks 30
// levels as "the best training period" - i.e. the coarsest quantization
// that does not give up reward. This bench makes that trade-off visible:
// too-coarse bins alias distinct QoS demands (lower converged reward /
// higher deployed power), finer bins only add states and training time.
//
// A second axis covers *value* quantization with the library's wire codec
// (rl/qtable_delta.hpp serialize_quantized - deliberately not a bench-local
// rounding): the paper-choice table is round-tripped through f32/f16/q8
// and redeployed, showing what the narrower wire formats would cost in
// policy quality against what they save in bytes. Fleet uploads travel
// as full f32 tables (QTable::serialize) or QTableDelta today.
#include <cstdio>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "rl/qtable_delta.hpp"
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

  // --- value quantization via the shipping wire codec ----------------------
  // Round-trip the paper-choice table (30 levels, index 3) through each
  // WireQuant mode and deploy the reconstructed table in the same session.
  const std::size_t paper_index = 3;
  const rl::QTable& paper_table = trained[paper_index].table;
  const rl::WireQuant modes[] = {rl::WireQuant::kF32, rl::WireQuant::kF16,
                                 rl::WireQuant::kQ8};
  const char* mode_names[] = {"f32", "f16", "q8"};
  std::vector<rl::QTable> requantized;
  std::vector<std::size_t> wire_bytes;
  for (const rl::WireQuant mode : modes) {
    ByteWriter out;
    rl::serialize_quantized(paper_table, mode, out);
    wire_bytes.push_back(out.data().size());
    ByteReader in{out.data(), "abl wire"};
    requantized.push_back(rl::deserialize_quantized(in));
  }

  sim::RunPlan qplan;
  for (const rl::QTable& table : requantized) {
    sim::ExperimentConfig cfg = spec.experiment_config(sim::GovernorKind::kNext, 2);
    cfg.next_config.fps_levels = levels[paper_index];
    cfg.trained_table = &table;
    qplan.add(spec.app_factory(), spec.name, cfg);
  }
  const auto qresults = sim::execute(qplan);

  CsvWriter qcsv{out_dir() + "/abl_quantization_wire.csv",
                 {"wire_mode", "wire_bytes", "deployed_power_w", "deployed_fps"}};
  std::printf("\nwire-format axis (30 levels, %zu states):\n",
              paper_table.state_count());
  std::printf("%10s %12s %18s %14s\n", "wire_mode", "wire_bytes", "deployed_power_W",
              "deployed_FPS");
  for (std::size_t i = 0; i < std::size(modes); ++i) {
    std::printf("%10s %12zu %18.3f %14.1f%s\n", mode_names[i], wire_bytes[i],
                qresults[i].avg_power_w, qresults[i].avg_fps,
                i == 0 ? "   <- exact round trip" : "");
    qcsv.row_strings({mode_names[i], std::to_string(wire_bytes[i]),
                      std::to_string(qresults[i].avg_power_w),
                      std::to_string(qresults[i].avg_fps)});
  }
  std::printf("\nexpected shape: f32 redeployment is bit-exact (same session to the\n"
              "decision); f16/q8 shrink the wire with sub-percent policy drift.\n");
  std::printf("series -> %s/abl_quantization.csv\n\n", out_dir().c_str());
  return 0;
}
