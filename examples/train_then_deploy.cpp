// train_then_deploy - the per-app Q-table persistence workflow of
// Section IV-B: "The training for every newly executing application is only
// performed once and the Q-table results are stored on the memory so that
// later when the application is executed again the agent is able to refer
// to the Q-table".
//
// Trains Next on PubG, saves the Q-table to disk, reloads it into a fresh
// agent and compares: cold (untrained), warm (reloaded), and the stock
// governor.
#include <cstdio>
#include <string>

#include "sim/runner.hpp"
#include "workload/apps.hpp"

int main(int argc, char** argv) {
  using namespace nextgov;

  const std::string table_path = argc > 1 ? argv[1] : "pubg_qtable.bin";
  const auto app = workload::AppId::kPubg;
  const auto duration = workload::paper_session_length(app);

  // --- session 1: the app has never been seen; the agent trains online ---
  std::puts("first launch: no stored Q-table, training online...");
  sim::TrainingOptions train;
  train.max_duration = SimTime::from_seconds(1500.0);
  train.seed = 7;
  const sim::TrainingResult trained = sim::train_next(app, core::NextConfig{}, train);
  std::printf("  trained %zu states (%llu decisions), persisting to %s\n",
              trained.states_visited, static_cast<unsigned long long>(trained.decisions),
              table_path.c_str());
  trained.table.save(table_path);

  // --- session 2: the app is reopened; the stored table is reloaded ------
  std::puts("\nsecond launch: loading the stored Q-table and deploying greedily...");
  const rl::QTable reloaded = rl::QTable::load(table_path);
  std::printf("  reloaded %zu states, %llu visits\n", reloaded.state_count(),
              static_cast<unsigned long long>(reloaded.total_visits()));

  // The three comparison sessions run as one parallel runner plan.
  sim::ExperimentConfig cfg;
  cfg.duration = duration;
  cfg.seed = 99;  // a different user session than training

  sim::RunPlan plan;
  cfg.governor = sim::GovernorKind::kSchedutil;
  plan.add(app, cfg);
  cfg.governor = sim::GovernorKind::kNext;
  cfg.trained_table = &reloaded;
  plan.add(app, cfg);
  // Cold agent for contrast: greedy on an empty table = do-nothing caps.
  cfg.trained_table = nullptr;
  cfg.next_mode = core::AgentMode::kDeployed;
  plan.add(app, cfg);
  const auto results = sim::execute(plan);
  const sim::SessionResult& stock = results[0];
  const sim::SessionResult& warm = results[1];
  const sim::SessionResult& cold = results[2];

  std::printf("\n%-22s %12s %16s %10s\n", "configuration", "avg_power_W", "peak_big_temp_C",
              "avg_FPS");
  std::printf("%-22s %12.3f %16.1f %10.1f\n", "schedutil (stock)", stock.avg_power_w,
              stock.peak_temp_big_c, stock.avg_fps);
  std::printf("%-22s %12.3f %16.1f %10.1f\n", "Next cold (untrained)", cold.avg_power_w,
              cold.peak_temp_big_c, cold.avg_fps);
  std::printf("%-22s %12.3f %16.1f %10.1f\n", "Next warm (reloaded)", warm.avg_power_w,
              warm.peak_temp_big_c, warm.avg_fps);
  std::printf("\nwarm vs stock: %.1f%% power saved at %.1f C lower peak.\n",
              100.0 * (1.0 - warm.avg_power_w / stock.avg_power_w),
              stock.peak_temp_big_c - warm.peak_temp_big_c);
  return 0;
}
