// runner.hpp - the one execution entry point for experiment and training
// sweeps.
//
// Every figure, ablation and example in this repo is a sweep of independent
// cells: evaluation sweeps are (app x governor x seed x config) sessions
// through the 1 ms engine loop, training sweeps are (app x NextConfig x
// seed x budget) online-learning runs. Callers describe a RunPlan or a
// TrainingPlan and hand it to execute(); ExecOptions picks threads, batch
// width and worker processes.
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

/// Resolves a worker (or process) request against a task count: 0 = one
/// per hardware thread, and never more than tasks.
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

/// Declarative batch of sessions. Build with add()/add_grid(), run with
/// execute().
class RunPlan {
 public:
  /// Adds one session for a catalog app.
  void add(workload::AppId app, const ExperimentConfig& config);
  /// Adds one session for an arbitrary app factory.
  void add(AppFactory factory, std::string name, const ExperimentConfig& config);

  /// Cross product: one session per (app, governor, seed), each starting
  /// from `base` with the governor and seed substituted. Suits homogeneous
  /// sweeps; sweeps needing per-cell config (e.g. a trained table per
  /// governor, as in the Fig. 7/8 benches) build their plans with add().
  void add_grid(std::span<const workload::AppId> apps,
                std::span<const GovernorKind> governors,
                std::span<const std::uint64_t> seeds, const ExperimentConfig& base);

  [[nodiscard]] std::size_t size() const noexcept { return sessions_.size(); }
  [[nodiscard]] bool empty() const noexcept { return sessions_.empty(); }
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
/// mirroring RunPlan. Build with add()/add_seed_sweep(), run with
/// execute(). The figure benches route *all* their agent training through
/// this (one agent per cell trains concurrently instead of serializing the
/// sweep).
class TrainingPlan {
 public:
  /// Adds one training cell for a catalog app.
  void add(workload::AppId app, const core::NextConfig& config,
           const TrainingOptions& options);
  /// Adds one training cell for an arbitrary app factory.
  void add(AppFactory factory, std::string name, const core::NextConfig& config,
           const TrainingOptions& options);

  /// `count` cells of `base` whose seeds are derive_seed(base_seed, i) -
  /// the repo's one documented seed-derivation scheme for sweeps.
  void add_seed_sweep(workload::AppId app, const core::NextConfig& config,
                      const TrainingOptions& base, std::size_t count,
                      std::uint64_t base_seed);

  [[nodiscard]] std::size_t size() const noexcept { return cells_.size(); }
  [[nodiscard]] bool empty() const noexcept { return cells_.empty(); }
  [[nodiscard]] const std::vector<TrainingSpec>& cells() const noexcept { return cells_; }

 private:
  std::vector<TrainingSpec> cells_;
};

// --- execution options and accounting --------------------------------------

/// Wall-clock accumulated per phase of the batch-resident lock-step loop,
/// in seconds, summed over all lock-step batches of a run (batches that
/// fall back to per-session stepping contribute nothing). The
/// perf_thermal_batch bench compares these against the same phases timed
/// around serial stepping to attribute the batch-vs-serial ratio.
struct BatchPhaseTimings {
  double pre_s{0.0};      ///< app/render/load pre-phases
  double power_s{0.0};    ///< PowerBatch input push + [cluster][session] sweep
  double thermal_s{0.0};  ///< RcBatch SoA solve
  double observe_s{0.0};  ///< observation refresh + sample + kernel governor
  double post_s{0.0};     ///< meta control (incl. grouped Q-step) + throttle/totals/record
  double scatter_s{0.0};  ///< batch entry/exit gather + scatter (boundaries only)
  std::int64_t ticks{0};  ///< engine-ticks x sessions advanced lock-step
};

/// MultiprocFaultPlan shard index meaning "no shard".
inline constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

/// Deterministic worker-failure injection for processes > 1 (tests, the
/// recovery smoke and the perf_multiproc recovery gate). Defaults inject
/// nothing.
struct MultiprocFaultPlan {
  /// This shard's worker SIGKILLs itself mid-stream (after
  /// `kill_after_frames` result frames, or just before its done frame for
  /// smaller shards), so the parent sees a truncated stream + a signaled
  /// child - exactly what a real crash looks like.
  std::size_t kill_shard{kNoShard};
  std::size_t kill_after_frames{1};
  /// This shard's worker flips one byte of its first frame's payload after
  /// the CRC was computed, modelling in-flight corruption; the parent must
  /// reject the stream on the CRC check.
  std::size_t corrupt_shard{kNoShard};
};

/// How execute() runs a plan. Every value yields the same results (see the
/// determinism contract above); the fields only trade throughput, memory
/// and isolation.
struct ExecOptions {
  /// Worker threads per process; 0 = one per hardware thread, 1 = serial in
  /// the calling thread (no pool).
  std::size_t workers{0};
  /// Max cells one worker advances lock-step (see execute()). 1 = the
  /// per-session reference path: whole sessions / training cells one at a
  /// time. 0 = size batches automatically: the plan is split evenly across
  /// the workers, capped so per-worker engine memory stays bounded, and
  /// shares too narrow for the SoA sweep to pay (< 4 cells) degenerate to
  /// the per-session path. Any other value is honored as given.
  std::size_t max_batch{0};
  /// When set, every lock-step batch accumulates per-phase wall time here
  /// (merged under a lock once per batch, so the hot loop pays only the
  /// clock reads). Leave null outside measurement runs. Requires
  /// processes = 1: a forked worker cannot write the parent's sink.
  BatchPhaseTimings* phase_timings{nullptr};
  /// Worker processes the plan is sharded across (sim/multiproc.hpp;
  /// resolve_workers semantics). 1 runs in-process with no forks.
  std::size_t processes{1};
  /// Worker-failure injection for processes > 1.
  MultiprocFaultPlan faults{};
};

/// What happened to one shard of a sharded run.
struct ShardOutcome {
  std::size_t shard{0};
  std::size_t first_cell{0};  ///< plan index of the shard's first cell
  std::size_t cell_count{0};
  /// True when the worker's stream was rejected and the shard was re-run
  /// in the parent process (results still land, bit-identically).
  bool recovered{false};
  /// Why the worker's stream was rejected ("" for a healthy worker):
  /// truncated stream, CRC mismatch, framing violation, nonzero exit,
  /// death by signal, or a fork failure.
  std::string failure;
};

/// Merge-side accounting of one execute() call, for tests, the bench and
/// callers that want to surface degraded-but-complete sweeps. An
/// in-process run reports zero processes and one shard covering the plan.
struct ShardReport {
  std::size_t processes{0};  ///< worker processes actually forked
  std::vector<ShardOutcome> shards;
  std::uint64_t frames{0};  ///< result frames accepted off the pipes
  std::uint64_t bytes{0};   ///< frame payload bytes accepted

  [[nodiscard]] std::size_t recovered_shards() const noexcept {
    std::size_t n = 0;
    for (const auto& s : shards) {
      if (s.recovered) ++n;
    }
    return n;
  }
};

// --- the entry point -------------------------------------------------------

/// Executes every session of `plan` and returns results in plan order;
/// `report`, when non-null, receives the shard accounting. A ScenarioMatrix
/// runs as execute(matrix.to_run_plan(governor)).
///
/// The lock-step path (max_batch != 1) gives every worker a *group* of
/// homogeneous sessions that stays *batch-resident* between ticks: each
/// engine parks its thermal state in an RcBatch lane
/// (Engine::attach_thermal_batch), and every tick runs as phase sweeps
/// across the group - app/render pre-phases, one [cluster][session] power
/// sweep (soc/power_batch.hpp) into the thermal power lanes, one SoA
/// thermal solve (thermal/rc_batch.hpp), observation reading the
/// temperature lanes in place, and grouped NextAgent control points
/// (core::NextAgent::control_group). Each sweep reproduces every session's
/// per-step arithmetic exactly. Run plans group by duration, training
/// plans by (max_duration, episode_length) with stop_at_convergence unset
/// (early stopping is data-dependent control flow); cells that fit no
/// group, or whose engines turn out to use a different topology or step,
/// fall back to the per-session path.
///
/// Throws ConfigError when phase_timings is set with processes != 1.
[[nodiscard]] std::vector<SessionResult> execute(const RunPlan& plan,
                                                 const ExecOptions& options = {},
                                                 ShardReport* report = nullptr);

/// Training counterpart: TrainingResults in plan order, bit-identical to
/// serial per-cell training (wall_seconds excepted; a lock-step batch
/// attributes an even share of its wall time to each of its cells).
[[nodiscard]] std::vector<TrainingResult> execute(const TrainingPlan& plan,
                                                  const ExecOptions& options = {},
                                                  ShardReport* report = nullptr);

/// Stateless SplitMix64-style seed derivation for grid sweeps: gives every
/// (base, index) pair an independent, reproducible stream. Used by
/// add_grid()/add_seed_sweep() callers that want per-cell seeds from one
/// base seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) noexcept;

// --- perfbench compatibility shim: begin ------------------------------------
// perfbench/ is built against these names, which predate execute(). They
// only forward (run_plan/run_training_plan on the per-session path,
// max_batch = 1); nothing else in the tree calls them (CI greps for it).
using RunnerOptions = ExecOptions;
using BatchOptions = ExecOptions;
[[nodiscard]] inline std::vector<SessionResult> run_plan(const RunPlan& plan,
                                                         RunnerOptions options = {}) {
  options.max_batch = 1;
  return execute(plan, options);
}
[[nodiscard]] inline std::vector<TrainingResult> run_training_plan(const TrainingPlan& plan,
                                                                   RunnerOptions options = {}) {
  options.max_batch = 1;
  return execute(plan, options);
}
[[nodiscard]] inline std::vector<SessionResult> run_plan_batched(
    const RunPlan& plan, const BatchOptions& options = {}) {
  return execute(plan, options);
}
[[nodiscard]] inline std::vector<TrainingResult> run_training_plan_batched(
    const TrainingPlan& plan, const BatchOptions& options = {}) {
  return execute(plan, options);
}
// --- perfbench compatibility shim: end --------------------------------------

}  // namespace nextgov::sim
