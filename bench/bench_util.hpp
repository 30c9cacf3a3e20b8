// bench_util.hpp - shared plumbing for the figure benches: output directory
// handling, paper-vs-measured printing, and the standard train-then-deploy
// evaluation protocol ("All results for Next were observed when it was
// fully trained", Section V).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"

namespace nextgov::bench {

/// Wall time of one call, for scenario_matrix's speedup measurement.
inline double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Serial-vs-pool measurement of one RunPlan (scenario_matrix): workers
/// clamped to min(plan size, hardware threads) for timing, the
/// single-core "skipped" annotation, and the bit-identity gate always
/// exercised under real concurrency (>= 4 threads) even on one-core hosts
/// because the determinism contract is about scheduling, not cores.
struct PlanTiming {
  std::vector<sim::SessionResult> serial_results;  ///< plan order
  double serial_s{0.0};
  double parallel_s{0.0};
  std::size_t workers{0};  ///< timing pool size
  /// False on single-hardware-thread hosts: parallel timing would only
  /// measure scheduler thrash, so speedup stays 0 and JSON writers should
  /// emit a "skipped" status.
  bool can_measure_speedup{false};
  double speedup{0.0};
  std::size_t contract_workers{0};  ///< pool size of the bit-identity run
  bool bit_identical{false};
};

inline PlanTiming time_run_plan(const sim::RunPlan& plan, unsigned hardware_threads) {
  PlanTiming t;
  t.workers = std::min<std::size_t>(plan.size(), std::max(1u, hardware_threads));
  t.can_measure_speedup = t.workers >= 2;
  t.contract_workers = std::max<std::size_t>(4, t.workers);

  t.serial_s = wall_seconds([&] { t.serial_results = sim::execute(plan, {.workers = 1}); });

  std::vector<sim::SessionResult> parallel_results;
  t.parallel_s = wall_seconds([&] {
    parallel_results = sim::execute(plan, {.workers = t.contract_workers});
  });
  if (t.can_measure_speedup && t.contract_workers != t.workers) {
    t.parallel_s = wall_seconds(
        [&] { (void)sim::execute(plan, {.workers = t.workers}); });
  }
  if (t.can_measure_speedup && t.parallel_s > 0.0) t.speedup = t.serial_s / t.parallel_s;

  t.bit_identical = t.serial_results.size() == parallel_results.size();
  for (std::size_t i = 0; t.bit_identical && i < t.serial_results.size(); ++i) {
    t.bit_identical = sim::bit_identical(t.serial_results[i], parallel_results[i]);
  }
  return t;
}

/// Where benches drop their CSV series (created on demand).
inline std::string out_dir() {
  const std::filesystem::path dir{"bench_out"};
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir.string();
}

inline void print_header(const char* figure, const char* description) {
  std::printf("==================================================================\n");
  std::printf("%s - %s\n", figure, description);
  std::printf("==================================================================\n");
}

/// Prints "paper X vs measured Y" with the reproduction ratio.
inline void print_vs_paper(const char* label, double paper, double measured,
                           const char* unit) {
  const double ratio = paper != 0.0 ? measured / paper : 0.0;
  std::printf("  %-34s paper %8.2f %-4s  measured %8.2f %-4s  (x%.2f)\n", label, paper, unit,
              measured, unit, ratio);
}

/// The standard evaluation-training options: full-budget refinement, not
/// stop-at-convergence ("All results for Next were observed when it was
/// fully trained", Section V).
inline sim::TrainingOptions eval_training_options(std::uint64_t seed,
                                                  double budget_s = 1500.0) {
  sim::TrainingOptions opts;
  opts.max_duration = SimTime::from_seconds(budget_s);
  opts.seed = seed;
  return opts;
}

/// Trains Next on `factory`'s app until `budget` and returns the learned
/// table. One cell of a TrainingPlan - benches training more than one
/// agent should build the plan themselves so the cells fan out across the
/// runner's worker pool instead of serializing.
inline sim::TrainingResult train_for_eval(sim::AppFactory factory, std::uint64_t seed,
                                          double budget_s = 1500.0,
                                          core::NextConfig config = {}) {
  sim::TrainingPlan plan;
  plan.add(std::move(factory), "train_for_eval", config, eval_training_options(seed, budget_s));
  return std::move(sim::execute(plan).front());
}

/// Adds `seeds` sessions (base_seed, base_seed+1, ...) of `cfg` to `plan`.
inline void add_seed_sweep(sim::RunPlan& plan, workload::AppId app,
                           const sim::ExperimentConfig& cfg, int seeds,
                           std::uint64_t base_seed = 1) {
  for (int i = 0; i < seeds; ++i) {
    sim::ExperimentConfig c = cfg;
    c.seed = base_seed + static_cast<std::uint64_t>(i);
    plan.add(app, c);
  }
}

/// Mean of one SessionResult field over a slice of runner results.
inline double mean_field(std::span<const sim::SessionResult> results,
                         double sim::SessionResult::* field) {
  if (results.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : results) sum += r.*field;
  return sum / static_cast<double>(results.size());
}

/// The Fig. 7/8 evaluation sweep for one app: `seeds` schedutil sessions,
/// `seeds` Next sessions deploying `table`, and - for games - `seeds`
/// Int. QoS sessions. Results come back in that slice order; read them
/// with governor_slice(). Returns the number of governor slices (2 or 3).
inline std::size_t add_governor_sweeps(sim::RunPlan& plan, workload::AppId app,
                                       SimTime duration, int seeds,
                                       const rl::QTable* table) {
  sim::ExperimentConfig base;
  base.duration = duration;
  base.governor = sim::GovernorKind::kSchedutil;
  add_seed_sweep(plan, app, base, seeds);
  base.governor = sim::GovernorKind::kNext;
  base.trained_table = table;
  add_seed_sweep(plan, app, base, seeds);
  if (!workload::is_game(app)) return 2;
  base.governor = sim::GovernorKind::kIntQos;
  base.trained_table = nullptr;
  add_seed_sweep(plan, app, base, seeds);
  return 3;
}

/// Slice `index` (0 = schedutil, 1 = Next, 2 = IntQos) of an
/// add_governor_sweeps() result set.
inline std::span<const sim::SessionResult> governor_slice(
    std::span<const sim::SessionResult> results, std::size_t index, int seeds) {
  return results.subspan(index * static_cast<std::size_t>(seeds),
                         static_cast<std::size_t>(seeds));
}

/// The full Fig. 7/8 evaluation protocol, deduplicated out of those benches
/// (they copy-pasted it): phase 1 trains one Next agent per app with all
/// cells concurrent in one TrainingPlan; phase 2 runs every
/// (app x governor x seed) evaluation session - at the app's scenario
/// session length - in one runner plan. Read per-app slices with
/// app_results() + governor_slice().
struct AppGovernorMatrix {
  std::vector<sim::TrainingResult> trained;  ///< one per app, app order
  std::vector<sim::SessionResult> results;   ///< plan order
  std::vector<std::size_t> offsets;          ///< per app: start index into results
  std::vector<std::size_t> slice_counts;     ///< per app: governor slices (2 or 3)
  int seeds{0};

  [[nodiscard]] std::span<const sim::SessionResult> app_results(std::size_t i) const {
    return std::span{results}.subspan(
        offsets[i], slice_counts[i] * static_cast<std::size_t>(seeds));
  }
};

inline AppGovernorMatrix run_app_governor_matrix(std::span<const workload::AppId> apps,
                                                 int seeds,
                                                 std::uint64_t train_seed_base) {
  AppGovernorMatrix m;
  m.seeds = seeds;
  sim::TrainingPlan tplan;
  for (workload::AppId app : apps) {
    tplan.add(app, core::NextConfig{},
              eval_training_options(train_seed_base + static_cast<std::uint64_t>(app)));
  }
  m.trained = sim::execute(tplan);

  sim::RunPlan plan;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    m.offsets.push_back(plan.size());
    m.slice_counts.push_back(
        add_governor_sweeps(plan, apps[i], sim::app_scenario(apps[i]).effective_duration(),
                            seeds, &m.trained[i].table));
  }
  m.results = sim::execute(plan);
  return m;
}

}  // namespace nextgov::bench
