#include "sim/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "core/next_agent.hpp"

namespace nextgov::sim {

// --- the shared worker pool ------------------------------------------------

std::size_t resolve_workers(std::size_t requested, std::size_t tasks) noexcept {
  std::size_t workers = requested;
  if (workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw > 0 ? hw : 1;
  }
  return std::min(workers, tasks);
}

void run_indexed_tasks(std::size_t n, std::size_t workers,
                       const std::function<void(std::size_t)>& task) {
  if (n == 0) return;
  require(static_cast<bool>(task), "run_indexed_tasks needs a task");

  std::vector<std::exception_ptr> errors(n);
  const auto run_one = [&](std::size_t i) {
    try {
      task(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) run_one(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
             i = next.fetch_add(1, std::memory_order_relaxed)) {
          run_one(i);
        }
      });
    }
    for (auto& t : pool) t.join();
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) noexcept {
  // SplitMix64 finalizer over the combined (base, index) state: adjacent
  // indices land in unrelated streams.
  std::uint64_t z = base + (index + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- plans -----------------------------------------------------------------

void RunPlan::add(workload::AppId app, const ExperimentConfig& config) {
  add([app](std::uint64_t seed) { return workload::make_app(app, seed); },
      std::string{workload::to_string(app)}, config);
}

void RunPlan::add(AppFactory factory, std::string name, const ExperimentConfig& config) {
  require(static_cast<bool>(factory), "RunPlan::add needs an app factory");
  sessions_.push_back(SessionSpec{std::move(name), std::move(factory), config});
}

void RunPlan::add_grid(std::span<const workload::AppId> apps,
                       std::span<const GovernorKind> governors,
                       std::span<const std::uint64_t> seeds, const ExperimentConfig& base) {
  for (const workload::AppId app : apps) {
    for (const GovernorKind governor : governors) {
      for (const std::uint64_t seed : seeds) {
        ExperimentConfig config = base;
        config.governor = governor;
        config.seed = seed;
        add(app, config);
      }
    }
  }
}

void TrainingPlan::add(workload::AppId app, const core::NextConfig& config,
                       const TrainingOptions& options) {
  add([app](std::uint64_t seed) { return workload::make_app(app, seed); },
      std::string{workload::to_string(app)}, config, options);
}

void TrainingPlan::add(AppFactory factory, std::string name, const core::NextConfig& config,
                       const TrainingOptions& options) {
  require(static_cast<bool>(factory), "TrainingPlan::add needs an app factory");
  cells_.push_back(TrainingSpec{std::move(name), std::move(factory), config, options});
}

void TrainingPlan::add_seed_sweep(workload::AppId app, const core::NextConfig& config,
                                  const TrainingOptions& base, std::size_t count,
                                  std::uint64_t base_seed) {
  for (std::size_t i = 0; i < count; ++i) {
    TrainingOptions options = base;
    options.seed = derive_seed(base_seed, i);
    add(app, config, options);
  }
}

// --- execution ---------------------------------------------------------------

namespace {

/// Merges one cell's local phase timings into the shared sink. Locked per
/// *cell* (not per tick), so the hot loop only pays the clock reads.
std::mutex g_phase_timings_mutex;
void merge_phase_timings(BatchPhaseTimings* sink, const BatchPhaseTimings& local) {
  if (sink == nullptr) return;
  const std::lock_guard<std::mutex> lock{g_phase_timings_mutex};
  sink->pre_s += local.pre_s;
  sink->power_s += local.power_s;
  sink->thermal_s += local.thermal_s;
  sink->observe_s += local.observe_s;
  sink->post_s += local.post_s;
  sink->ticks += local.ticks;
}

/// Advances `engine` by `duration`. Without a phase sink this is
/// Engine::run. With one, every tick runs Engine::step()'s phases one by
/// one with a clock read after each, so each lap is attributable; the phase
/// order is exactly step()'s, so the trajectory is bit-identical.
void advance(Engine& engine, SimTime duration, BatchPhaseTimings* timings) {
  if (timings == nullptr) {
    engine.run(duration);
    return;
  }
  using Clock = std::chrono::steady_clock;
  const SimTime dt = engine.config().step;
  const SimTime end = engine.now() + duration;
  Clock::time_point mark = Clock::now();
  const auto lap = [&](double BatchPhaseTimings::* phase) {
    const Clock::time_point now = Clock::now();
    timings->*phase += std::chrono::duration<double>(now - mark).count();
    mark = now;
  };
  while (engine.now() < end) {
    engine.step_pre_power();
    lap(&BatchPhaseTimings::pre_s);
    engine.apply_power_model();
    lap(&BatchPhaseTimings::power_s);
    engine.thermal().step(dt);
    lap(&BatchPhaseTimings::thermal_s);
    engine.step_post_observe();
    lap(&BatchPhaseTimings::observe_s);
    engine.step_post_meta();
    engine.step_post_finish();
    lap(&BatchPhaseTimings::post_s);
    ++timings->ticks;
  }
}

/// One evaluation session: build its engine, run it and summarize.
SessionResult run_session_cell(const SessionSpec& spec, BatchPhaseTimings* timings) {
  const auto engine = make_engine(spec.app_factory, spec.config);
  BatchPhaseTimings local;
  advance(*engine, spec.config.duration, timings != nullptr ? &local : nullptr);
  merge_phase_timings(timings, local);
  return summarize(*engine, spec.name, std::string{to_string(spec.config.governor)});
}

/// Cadence at which training re-checks convergence.
constexpr SimTime kTrainingCheckChunk = SimTime::from_seconds(1.0);

/// Engine wired for one online-training cell: the Next stack in training
/// mode, warm-started from options.initial_table when set.
std::unique_ptr<Engine> make_training_engine(const TrainingSpec& cell) {
  ExperimentConfig exp;
  exp.governor = GovernorKind::kNext;
  exp.seed = cell.options.seed;
  exp.ambient = cell.options.ambient;
  exp.refresh_hz = cell.options.refresh_hz;
  exp.next_config = cell.config;
  exp.next_mode = core::AgentMode::kTraining;

  auto engine = make_engine(cell.app_factory, exp);
  if (cell.options.initial_table != nullptr) {
    // Warm start (federated merge rounds): resume learning from the given
    // aggregate instead of a cold table. Mode stays kTraining.
    NEXTGOV_ASSERT(engine->next_agent() != nullptr);
    engine->next_agent()->set_q_table(*cell.options.initial_table);
  }
  return engine;
}

/// The convergence rule applied after every trained chunk: enough
/// decisions AND the quantized state space stopped growing. The agent keeps
/// discovering new states for as long as the discretization is finer, which
/// is exactly what makes finer FPS quantization train longer (the paper's
/// Fig. 6).
struct TrainingConvergence {
  static constexpr int kCoverageSettleChunks = 45;  // 45 s without real discovery
  std::size_t prev_states{0};
  int settled_chunks{0};
  bool converged{false};
  double sim_seconds_at_convergence{0.0};

  /// Feed the agent's state after one more kTrainingCheckChunk of training.
  void on_chunk(std::size_t states_now, std::uint64_t decisions, double trained_s) noexcept {
    settled_chunks = (states_now - prev_states <= 1) ? settled_chunks + 1 : 0;
    prev_states = states_now;
    if (!converged && decisions > 2000 && settled_chunks >= kCoverageSettleChunks) {
      converged = true;
      sim_seconds_at_convergence = trained_s;
    }
  }
};

/// One training cell - the repo's one training loop (Section IV-B): the
/// agent trains online in chunks of kTrainingCheckChunk, episodes end with
/// the user re-opening the app, and convergence is checked after every
/// chunk.
TrainingResult run_training_cell(const TrainingSpec& cell, BatchPhaseTimings* timings) {
  const auto engine = make_training_engine(cell);
  const core::NextAgent& agent = *engine->next_agent();
  const auto wall_start = std::chrono::steady_clock::now();
  BatchPhaseTimings local;
  const TrainingOptions& options = cell.options;
  SimTime trained = SimTime::zero();
  std::uint64_t episode = 0;
  TrainingConvergence convergence;
  const auto stopped = [&] { return options.stop_at_convergence && convergence.converged; };

  while (trained < options.max_duration) {
    SimTime episode_left = options.episode_length;
    while (episode_left.us() > 0 && trained < options.max_duration && !stopped()) {
      const SimTime chunk = std::min(kTrainingCheckChunk, episode_left);
      advance(*engine, chunk, timings != nullptr ? &local : nullptr);
      trained += chunk;
      episode_left = episode_left - chunk;
      convergence.on_chunk(agent.q_table().state_count(), agent.decisions(), trained.seconds());
    }
    if (stopped()) break;
    ++episode;
    // User re-opens the app: fresh app + cold thermal state, the learned
    // Q-table persists.
    engine->reset_session(cell.app_factory(options.seed + episode + 1));
  }
  merge_phase_timings(timings, local);

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return TrainingResult{agent.q_table(),
                        convergence.converged,
                        convergence.converged ? convergence.sim_seconds_at_convergence
                                              : trained.seconds(),
                        wall_s,
                        agent.decisions(),
                        agent.mean_reward(),
                        agent.q_table().state_count()};
}

}  // namespace

std::vector<SessionResult> execute(const RunPlan& plan, const ExecOptions& options) {
  std::vector<SessionResult> results(plan.size());
  run_indexed_tasks(plan.size(), resolve_workers(options.workers, plan.size()),
                    [&](std::size_t i) {
                      results[i] = run_session_cell(plan.sessions()[i], options.phase_timings);
                    });
  return results;
}

std::vector<TrainingResult> execute(const TrainingPlan& plan, const ExecOptions& options) {
  // TrainingResult carries a QTable (no default state), so cells land in
  // optional slots and are moved out once the pool has drained.
  std::vector<std::optional<TrainingResult>> slots(plan.size());
  run_indexed_tasks(plan.size(), resolve_workers(options.workers, plan.size()),
                    [&](std::size_t i) {
                      slots[i] = run_training_cell(plan.cells()[i], options.phase_timings);
                    });
  std::vector<TrainingResult> results;
  results.reserve(plan.size());
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace nextgov::sim
