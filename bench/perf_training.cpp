// perf_training - training throughput tracking for the repo's perf
// trajectory, the training-side counterpart of perf_throughput.
//
// The figure benches' dominant cost is agent training, which since the
// TrainingPlan refactor fans out across the runner's shared worker pool.
// This bench measures, and writes to bench_out/BENCH_training.json:
//
//   1. serial vs parallel TrainingPlan wall time for a mixed sweep of
//      training cells, with the scaling curve over worker counts;
//   2. the bit-identity flag: parallel training must reproduce the serial
//      tables and statistics exactly (wall_seconds excepted, which
//      measures host time by definition);
//
// Fleet training (round latency, ring-entry bytes, drain cost) is tracked
// by perf_fleet_server.
//
// `--smoke` shrinks budgets so CI can run it on every PR. On single-core
// hosts the speedup measurement is skipped (annotated in the JSON); the
// bit-identity check still runs under a real multi-thread pool.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "sim/runner.hpp"
#include "workload/apps.hpp"

namespace {

using namespace nextgov;
using nextgov::bench::training_results_identical;
using nextgov::bench::wall_seconds;

/// The measured sweep: a mixed (app x config x seed) batch like the figure
/// benches produce.
sim::TrainingPlan make_plan(std::size_t cells, double budget_s) {
  const workload::AppId apps[] = {workload::AppId::kLineage, workload::AppId::kFacebook,
                                  workload::AppId::kPubg};
  sim::TrainingPlan plan;
  for (std::size_t i = 0; i < cells; ++i) {
    core::NextConfig config;
    config.fps_levels = (i % 2 == 0) ? 30 : 20;
    sim::TrainingOptions opts;
    opts.max_duration = SimTime::from_seconds(budget_s);
    opts.seed = sim::derive_seed(7, i);
    plan.add(apps[i % std::size(apps)], config, opts);
  }
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nextgov::bench;

  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  print_header("perf", smoke ? "TrainingPlan throughput (smoke mode)"
                             : "TrainingPlan training throughput");

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t cells = smoke ? 4 : std::max<std::size_t>(8, 2 * hw);
  const double budget_s = smoke ? 120.0 : 900.0;
  const sim::TrainingPlan plan = make_plan(cells, budget_s);

  // --- serial baseline ---------------------------------------------------
  std::vector<sim::TrainingResult> serial_results;
  // Every timing below runs the per-cell path (max_batch = 1): this bench
  // measures the pool, not lock-step batching.
  const double serial_s = wall_seconds(
      [&] { serial_results = sim::execute(plan, {.workers = 1, .max_batch = 1}); });
  const double device_sim_s = static_cast<double>(cells) * budget_s;
  std::printf("  serial: %zu cells x %.0f sim-s in %.2f s (%.0f sim-s/wall-s)\n", cells,
              budget_s, serial_s, device_sim_s / serial_s);

  // --- bit-identity under real concurrency -------------------------------
  // Always >= 4 threads, even on single-core hosts: the determinism
  // contract is about scheduling independence, which preemption exercises.
  const std::size_t contract_workers = std::max<std::size_t>(4, std::min<std::size_t>(cells, hw));
  std::vector<sim::TrainingResult> parallel_results;
  double parallel_s = wall_seconds([&] {
    parallel_results = sim::execute(plan, {.workers = contract_workers, .max_batch = 1});
  });
  bool bit_identical = serial_results.size() == parallel_results.size();
  for (std::size_t i = 0; bit_identical && i < serial_results.size(); ++i) {
    bit_identical = training_results_identical(serial_results[i], parallel_results[i]);
  }
  std::printf("  bit-identity (%zu threads): %s\n", contract_workers,
              bit_identical ? "bit-identical" : "RESULTS DIVERGED");

  // --- scaling curve -----------------------------------------------------
  const std::size_t max_workers = std::min<std::size_t>(cells, hw);
  const bool can_measure_speedup = max_workers >= 2;
  struct ScalePoint {
    std::size_t workers;
    double wall_s;
  };
  std::vector<ScalePoint> curve{{1, serial_s}};
  if (can_measure_speedup) {
    for (std::size_t w = 2; w < max_workers; w *= 2) {
      const double s =
          wall_seconds([&] { (void)sim::execute(plan, {.workers = w, .max_batch = 1}); });
      curve.push_back({w, s});
    }
    if (contract_workers == max_workers) {
      curve.push_back({max_workers, parallel_s});
    } else {
      const double s = wall_seconds(
          [&] { (void)sim::execute(plan, {.workers = max_workers, .max_batch = 1}); });
      curve.push_back({max_workers, s});
    }
    for (const auto& p : curve) {
      std::printf("    %2zu workers: %6.2f s  (%.2fx)\n", p.workers, p.wall_s,
                  serial_s / p.wall_s);
    }
  } else {
    std::printf("  scaling: skipped (single hardware thread)\n");
  }
  const double best_parallel_s = curve.back().wall_s;
  const double speedup = can_measure_speedup ? serial_s / best_parallel_s : 0.0;

  // --- JSON trajectory file ----------------------------------------------
  const std::string path = out_dir() + "/BENCH_training.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"perf_training\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"hardware_threads\": %u,\n", hw);
  std::fprintf(out, "  \"plan\": {\n");
  std::fprintf(out, "    \"cells\": %zu,\n", cells);
  std::fprintf(out, "    \"sim_budget_s_per_cell\": %.1f,\n", budget_s);
  std::fprintf(out, "    \"serial_wall_s\": %.4f,\n", serial_s);
  std::fprintf(out, "    \"serial_sim_s_per_wall_s\": %.0f,\n", device_sim_s / serial_s);
  if (can_measure_speedup) {
    std::fprintf(out, "    \"status\": \"ok\",\n");
    std::fprintf(out, "    \"parallel_workers\": %zu,\n", curve.back().workers);
    std::fprintf(out, "    \"parallel_wall_s\": %.4f,\n", best_parallel_s);
    std::fprintf(out, "    \"speedup\": %.3f,\n", speedup);
  } else {
    std::fprintf(out, "    \"status\": \"skipped: single hardware thread\",\n");
    std::fprintf(out, "    \"speedup\": null,\n");
  }
  std::fprintf(out, "    \"bit_identical\": %s\n", bit_identical ? "true" : "false");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"scaling\": [");
  for (std::size_t i = 0; i < curve.size(); ++i) {
    std::fprintf(out, "%s\n    {\"workers\": %zu, \"wall_s\": %.4f, \"speedup\": %.3f}",
                 i == 0 ? "" : ",", curve[i].workers, curve[i].wall_s,
                 serial_s / curve[i].wall_s);
  }
  std::fprintf(out, "\n  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("  -> %s\n\n", path.c_str());
  return bit_identical ? 0 : 1;
}
