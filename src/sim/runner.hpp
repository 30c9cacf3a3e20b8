// runner.hpp - the one execution entry point for experiment and training
// sweeps.
//
// Every figure, ablation and example in this repo is a sweep of independent
// cells: evaluation sweeps are (app x governor x seed x config) sessions
// through the 1 ms engine loop, training sweeps are (app x NextConfig x
// seed x budget) online-learning runs. Callers describe a RunPlan or a
// TrainingPlan and hand it to execute(); ExecOptions picks the worker
// threads.
//
// Determinism contract: a cell's entire trajectory is a function of its
// spec (the engine holds no global state, and every stochastic element
// draws from the spec's seed), so every ExecOptions value yields results
// *bit-identical* to serial per-session execution in plan order. For
// training cells the contract covers every field except
// TrainingResult::wall_seconds, which measures host wall-clock by
// definition. Asserted by tests/sim/runner_test.cpp (including a
// randomized differential test over every path) and the other
// tests/sim/*_test.cpp suites that call execute(). The contract requires
// app factories to be pure: make_app-style factories that derive
// everything from the seed argument qualify; factories that mutate shared
// captured state do not.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "workload/apps.hpp"

namespace nextgov::sim {

// --- the shared worker pool ------------------------------------------------

/// Resolves a worker-thread request against a task count: 0 = one per
/// hardware thread, and never more than tasks.
[[nodiscard]] std::size_t resolve_workers(std::size_t requested, std::size_t tasks) noexcept;

/// Executes task(0) .. task(n-1) across `workers` threads with dynamic
/// work stealing off a shared counter (cells vary wildly in length, so
/// static striping would leave workers idle behind the longest stripe).
/// workers <= 1 runs serially in the calling thread. Exceptions are
/// collected per index and the first one in *index order* is rethrown
/// after all workers have drained. execute() runs on this pool; benches
/// with bespoke per-cell loops (e.g. fig06's instrumented training) can
/// use it directly.
void run_indexed_tasks(std::size_t n, std::size_t workers,
                       const std::function<void(std::size_t)>& task);

// --- plans -----------------------------------------------------------------

/// One independent session of a run plan.
struct SessionSpec {
  std::string name;        ///< label copied into SessionResult::app
  AppFactory app_factory;  ///< must be pure (see determinism contract above)
  ExperimentConfig config;
};

/// Declarative batch of sessions. Build with add(), run with execute().
class RunPlan {
 public:
  /// Adds one session for a catalog app.
  void add(workload::AppId app, const ExperimentConfig& config);
  /// Adds one session for an arbitrary app factory.
  void add(AppFactory factory, std::string name, const ExperimentConfig& config);

  [[nodiscard]] std::size_t size() const noexcept { return sessions_.size(); }
  [[nodiscard]] const std::vector<SessionSpec>& sessions() const noexcept { return sessions_; }

 private:
  std::vector<SessionSpec> sessions_;
};

/// One independent training cell of a training plan.
struct TrainingSpec {
  std::string name;        ///< label for diagnostics/CSV rows
  AppFactory app_factory;  ///< must be pure (see determinism contract above)
  core::NextConfig config;
  TrainingOptions options;
};

/// Declarative batch of (app x NextConfig x seed x budget) training cells,
/// mirroring RunPlan. Build with add(), run with execute(). The figure
/// benches route *all* their agent training through this (one agent per
/// cell trains concurrently instead of serializing the sweep).
class TrainingPlan {
 public:
  /// Adds one training cell for a catalog app.
  void add(workload::AppId app, const core::NextConfig& config,
           const TrainingOptions& options);
  /// Adds one training cell for an arbitrary app factory.
  void add(AppFactory factory, std::string name, const core::NextConfig& config,
           const TrainingOptions& options);

  [[nodiscard]] std::size_t size() const noexcept { return cells_.size(); }
  [[nodiscard]] bool empty() const noexcept { return cells_.empty(); }
  [[nodiscard]] const std::vector<TrainingSpec>& cells() const noexcept { return cells_; }

 private:
  std::vector<TrainingSpec> cells_;
};

// --- execution options -----------------------------------------------------

/// Wall-clock accumulated per phase of Engine::step(), in seconds, summed
/// over every cell of a run (see ExecOptions::phase_timings). perfbench's
/// traced train_eval_sweep and fleet_churn runs report them as per-layer
/// shares of the engine step.
struct BatchPhaseTimings {
  double pre_s{0.0};      ///< app/render/load pre-phase (step_pre_power)
  double power_s{0.0};    ///< power model (apply_power_model)
  double thermal_s{0.0};  ///< RC thermal solve
  double observe_s{0.0};  ///< observation refresh + sample + kernel governor
  double post_s{0.0};     ///< meta control (incl. the Q step) + throttle/totals/record
  /// Always 0: the batch entry/exit of the retired lock-step path. Kept
  /// because perfbench lays its spans out over these six fields.
  double scatter_s{0.0};
  std::int64_t ticks{0};  ///< engine ticks advanced, summed over every cell
};

/// How execute() runs a plan. Every value yields the same results (see the
/// determinism contract above).
struct ExecOptions {
  /// Worker threads; 0 = one per hardware thread, 1 = serial in the calling
  /// thread (no pool).
  std::size_t workers{0};
  /// When set, every engine steps through a timed per-tick loop over
  /// Engine::step()'s phases and accumulates their wall time here (merged
  /// under a lock once per cell, so the loop pays only the clock reads).
  /// Unset, engines run plain Engine::run. Leave null outside measurement
  /// runs.
  BatchPhaseTimings* phase_timings{nullptr};
};

// --- the entry point -------------------------------------------------------

/// Executes every session of `plan` and returns results in plan order. A
/// ScenarioMatrix runs as append_cells(plan, matrix.expand(), governor)
/// and then execute(plan). Each session gets its own engine, run with
/// Engine::run; the sessions are spread over the worker pool
/// (run_indexed_tasks).
[[nodiscard]] std::vector<SessionResult> execute(const RunPlan& plan,
                                                 const ExecOptions& options = {});

/// Receives cell `index`'s TrainingResult as soon as that cell finishes.
using TrainingConsumer = std::function<void(std::size_t index, TrainingResult&& result)>;

/// Training counterpart: runs every cell of `plan` and hands each result to
/// `consume`, bit-identical to serial per-cell training (wall_seconds
/// excepted). This holds the repo's one training loop - chunked episodes,
/// app re-opens and convergence checks - one engine per cell.
///
/// `consume(i, result)` runs on the worker thread that trained cell i, right
/// after it finishes, so at most `workers` results are alive at once.
/// With one worker the calls come in plan order on the calling thread; with
/// more they come in completion order, possibly concurrently, so the
/// consumer must only touch what belongs to index i. A consumer that throws
/// fails its cell like a training error: execute() rethrows the first
/// failure in plan order once every worker has drained.
void execute(const TrainingPlan& plan, const ExecOptions& options,
             const TrainingConsumer& consume);

/// The results of execute(plan, options, consume), collected in plan
/// order. train_next() and train_next_on() run one-cell plans through it.
[[nodiscard]] std::vector<TrainingResult> execute(const TrainingPlan& plan,
                                                  const ExecOptions& options = {});

/// Stateless SplitMix64-style seed derivation for sweeps: gives every
/// (base, index) pair an independent, reproducible stream - the repo's one
/// documented scheme for per-cell seeds from one base seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) noexcept;

// --- perfbench compatibility shim: begin ------------------------------------
// perfbench/ is built against these names, which predate execute(). They
// only forward; nothing else in the tree calls them (CI greps for it).
// BatchOptions' max_batch is the retired lock-step batch width: accepted
// and ignored.
using RunnerOptions = ExecOptions;
struct BatchOptions {
  std::size_t workers{0};
  std::size_t max_batch{0};
  BatchPhaseTimings* phase_timings{nullptr};
};
[[nodiscard]] inline std::vector<SessionResult> run_plan(const RunPlan& plan,
                                                         const RunnerOptions& options = {}) {
  return execute(plan, options);
}
[[nodiscard]] inline std::vector<TrainingResult> run_training_plan(
    const TrainingPlan& plan, const RunnerOptions& options = {}) {
  return execute(plan, options);
}
[[nodiscard]] inline std::vector<SessionResult> run_plan_batched(
    const RunPlan& plan, const BatchOptions& options = {}) {
  return execute(plan, {.workers = options.workers, .phase_timings = options.phase_timings});
}
[[nodiscard]] inline std::vector<TrainingResult> run_training_plan_batched(
    const TrainingPlan& plan, const BatchOptions& options = {}) {
  return execute(plan, {.workers = options.workers, .phase_timings = options.phase_timings});
}
// --- perfbench compatibility shim: end --------------------------------------

}  // namespace nextgov::sim
