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
#include "sim/multiproc.hpp"
#include "soc/power_batch.hpp"
#include "thermal/rc_batch.hpp"

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

/// Engines alive per worker are bounded by this when max_batch is 0: each
/// holds an app, a soc and a recorder, so an unbounded fleet-sized batch
/// would trade the SoA win for memory pressure.
constexpr std::size_t kDefaultMaxBatch = 32;

/// Below this SoA width lock-step batching is pointless: perf_thermal_batch
/// measures parity (within noise) at 4 sessions and real gains from ~8-16
/// up, so auto-sizing keeps shares of >= 4 (wash or better, and wider on
/// bigger plans) and degenerates narrower shares to singleton batches -
/// the per-session path, with the plan still fanned across the pool. An
/// explicit max_batch is a request for lock-step batching and is honored
/// as given.
constexpr std::size_t kMinAutoBatch = 4;

/// Splits each homogeneity group into lock-step batches: even shares
/// across the workers, capped at `max_batch` (kDefaultMaxBatch when auto).
/// Group order (and index order inside a group) is preserved, so batching
/// never reorders results.
std::vector<std::vector<std::size_t>> make_batches(
    const std::vector<std::vector<std::size_t>>& groups, std::size_t workers,
    std::size_t max_batch) {
  std::vector<std::vector<std::size_t>> batches;
  for (const auto& group : groups) {
    std::size_t size;
    if (max_batch > 0) {
      // Explicit width: honored as given (ExecOptions doc), independent
      // of the worker count; 1 is the per-session reference path.
      size = std::min(max_batch, group.size());
    } else {
      const std::size_t share = (group.size() + workers - 1) / workers;
      size = std::clamp<std::size_t>(share, 1, kDefaultMaxBatch);
      if (size < kMinAutoBatch) size = 1;
    }
    for (std::size_t at = 0; at < group.size(); at += size) {
      const std::size_t end = std::min(group.size(), at + size);
      batches.emplace_back(group.begin() + static_cast<std::ptrdiff_t>(at),
                           group.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  return batches;
}

/// True when the built engines can actually share one RcBatch: identical
/// topology object and identical step. (Grouping keys only see the specs;
/// this is the ground-truth check against the engines.)
bool lockstep_compatible(const std::vector<std::unique_ptr<Engine>>& engines) {
  if (engines.size() < 2) return false;
  const auto& topo = engines.front()->thermal().topology();
  const SimTime dt = engines.front()->config().step;
  for (const auto& e : engines) {
    if (e->thermal().topology().get() != topo.get() || e->config().step != dt) return false;
  }
  return true;
}

/// The per-group SoA state of the batch-resident pipeline: the shared
/// thermal batch the engines are attached to, the group's power batch, and
/// the cluster-junction lane pointers wiring the two together.
struct ResidentPipeline {
  thermal::RcBatch rc;
  soc::PowerBatch power;
  std::vector<const double*> temp_lanes;
  std::vector<double*> power_lanes;
};

/// Merges one batch's local phase timings into the shared sink. Locked per
/// *batch* (not per tick), so the hot loop only pays clock reads.
std::mutex g_phase_timings_mutex;
void merge_phase_timings(BatchPhaseTimings* sink, const BatchPhaseTimings& local) {
  if (sink == nullptr) return;
  const std::lock_guard<std::mutex> lock{g_phase_timings_mutex};
  sink->pre_s += local.pre_s;
  sink->power_s += local.power_s;
  sink->thermal_s += local.thermal_s;
  sink->observe_s += local.observe_s;
  sink->post_s += local.post_s;
  sink->scatter_s += local.scatter_s;
  sink->ticks += local.ticks;
}

/// Builds the group's resident pipeline and parks every engine's thermal
/// state in it. Returns null - with nothing attached - when the group
/// can't share one pipeline (heterogeneous topology/step/SoC/junction
/// wiring), in which case callers fall back to per-session stepping.
/// Heap-allocated because every engine's batch_ pointer refers to the
/// pipeline's RcBatch: the address must outlive the attachment.
std::unique_ptr<ResidentPipeline> make_resident(std::vector<std::unique_ptr<Engine>>& engines) {
  if (!lockstep_compatible(engines)) return nullptr;
  Engine& ref = *engines.front();
  const auto& nodes = ref.cluster_nodes();
  soc::PowerBatch power{ref.soc(), engines.size()};
  if (power.cluster_count() != nodes.size()) return nullptr;
  for (const auto& e : engines) {
    if (e->cluster_nodes() != nodes || !power.compatible(e->soc())) return nullptr;
  }
  auto r = std::make_unique<ResidentPipeline>(ResidentPipeline{
      thermal::RcBatch{ref.thermal().topology(), engines.size()}, std::move(power), {}, {}});
  for (const thermal::NodeId node : nodes) {
    r->temp_lanes.push_back(r->rc.temperature_lane(node));
    r->power_lanes.push_back(r->rc.power_lane(node));
  }
  // Attach last: from here on the lanes hold the live state, so every
  // earlier bail-out above leaves the engines untouched.
  for (std::size_t s = 0; s < engines.size(); ++s) {
    engines[s]->attach_thermal_batch(r->rc, s);
  }
  return r;
}

/// Advances every engine of an attached group by `duration` with the whole
/// step pipeline batched: per tick, all pre-phases, one [cluster][session]
/// power sweep straight into the thermal power lanes, one SoA thermal
/// solve, all observe phases (reading the temperature lanes in place), the
/// group's due Next control points as one control_group sweep (other meta
/// governors fall back per session), then all finish phases. Cross-session
/// phase reordering is free - sessions are independent - and per session
/// the phase order is exactly step(), so the result is bit-identical to
/// per-session stepping.
void advance_resident(std::vector<std::unique_ptr<Engine>>& engines, ResidentPipeline& r,
                      SimTime duration, BatchPhaseTimings* timings) {
  const SimTime dt = engines.front()->config().step;
  const std::int64_t ticks = (duration.us() + dt.us() - 1) / dt.us();
  const std::size_t n = engines.size();
  std::vector<core::NextAgent*> due_agents;
  std::vector<const governors::Observation*> due_obs;
  std::vector<soc::Soc*> due_socs;
  std::vector<Engine*> due_engines;
  due_agents.reserve(n);
  due_obs.reserve(n);
  due_socs.reserve(n);
  due_engines.reserve(n);

  // The untimed (production) loop fuses the per-engine phases into two
  // sweeps per tick - each engine's state is pulled into cache twice, not
  // five times - around the two group-wide SoA kernels. The group's due
  // Next agents decide as one control_group sweep; their finish phase is
  // deferred past that decision, every other engine finishes in the same
  // pass. Per engine the phase order is exactly step(), so fusing changes
  // nothing bit-wise.
  const auto fused_tick = [&] {
    for (std::size_t s = 0; s < n; ++s) {
      Engine& e = *engines[s];
      e.step_pre_power();
      e.push_power_inputs(r.power, s);
    }
    r.power.evaluate(r.temp_lanes, r.power_lanes);
    r.rc.step(dt);
    due_agents.clear();
    due_obs.clear();
    due_socs.clear();
    due_engines.clear();
    for (std::size_t s = 0; s < n; ++s) {
      Engine& e = *engines[s];
      e.set_device_power(r.power.device_power(s));
      e.step_post_observe();
      if (e.meta_control_due()) {
        if (core::NextAgent* agent = e.next_agent(); agent != nullptr) {
          e.skip_meta_control();
          due_agents.push_back(agent);
          due_obs.push_back(&e.observation());
          due_socs.push_back(&e.soc());
          due_engines.push_back(&e);
          continue;  // finish runs after the group decision
        }
        e.step_post_meta();
      }
      e.step_post_finish();
    }
    if (!due_agents.empty()) {
      core::NextAgent::control_group(due_agents, due_obs, due_socs);
      for (Engine* e : due_engines) e->step_post_finish();
    }
  };

  if (timings == nullptr) {
    for (std::int64_t t = 0; t < ticks; ++t) fused_tick();
    return;
  }

  // The timed loop keeps the phases in separate sweeps so each lap is
  // attributable; it is bit-identical to the fused loop (same per-engine
  // order), just laid out for measurement instead of cache locality.
  using Clock = std::chrono::steady_clock;
  Clock::time_point mark;
  const auto lap = [&](double BatchPhaseTimings::* phase) {
    const Clock::time_point now = Clock::now();
    timings->*phase += std::chrono::duration<double>(now - mark).count();
    mark = now;
  };
  for (std::int64_t t = 0; t < ticks; ++t) {
    mark = Clock::now();
    for (auto& e : engines) e->step_pre_power();
    lap(&BatchPhaseTimings::pre_s);
    for (std::size_t s = 0; s < n; ++s) engines[s]->push_power_inputs(r.power, s);
    r.power.evaluate(r.temp_lanes, r.power_lanes);
    for (std::size_t s = 0; s < n; ++s) engines[s]->set_device_power(r.power.device_power(s));
    lap(&BatchPhaseTimings::power_s);
    r.rc.step(dt);
    lap(&BatchPhaseTimings::thermal_s);
    for (auto& e : engines) e->step_post_observe();
    lap(&BatchPhaseTimings::observe_s);
    due_agents.clear();
    due_obs.clear();
    due_socs.clear();
    for (auto& e : engines) {
      if (!e->meta_control_due()) continue;
      if (core::NextAgent* agent = e->next_agent(); agent != nullptr) {
        e->skip_meta_control();
        due_agents.push_back(agent);
        due_obs.push_back(&e->observation());
        due_socs.push_back(&e->soc());
      } else {
        e->step_post_meta();
      }
    }
    if (!due_agents.empty()) core::NextAgent::control_group(due_agents, due_obs, due_socs);
    for (auto& e : engines) e->step_post_finish();
    lap(&BatchPhaseTimings::post_s);
  }
  timings->ticks += ticks * static_cast<std::int64_t>(n);
}

/// One evaluation batch: build the group's engines, advance lock-step
/// (falling back to per-session stepping when the group degenerates), and
/// summarize into plan-order slots.
void run_session_batch(const RunPlan& plan, const std::vector<std::size_t>& indices,
                       std::vector<SessionResult>& results, BatchPhaseTimings* timings) {
  std::vector<std::unique_ptr<Engine>> engines;
  engines.reserve(indices.size());
  for (const std::size_t idx : indices) {
    const SessionSpec& spec = plan.sessions()[idx];
    engines.push_back(make_engine(spec.app_factory, spec.config));
  }
  const SimTime duration = plan.sessions()[indices.front()].config.duration;
  BatchPhaseTimings local;
  const bool timed = timings != nullptr;
  using Clock = std::chrono::steady_clock;
  Clock::time_point mark;
  if (timed) mark = Clock::now();
  auto resident = make_resident(engines);
  if (timed) local.scatter_s += std::chrono::duration<double>(Clock::now() - mark).count();
  if (resident != nullptr) {
    advance_resident(engines, *resident, duration, timed ? &local : nullptr);
    if (timed) mark = Clock::now();
    for (auto& e : engines) e->detach_thermal_batch();
    if (timed) {
      local.scatter_s += std::chrono::duration<double>(Clock::now() - mark).count();
      merge_phase_timings(timings, local);
    }
  } else {
    for (auto& e : engines) e->run(duration);
  }
  for (std::size_t s = 0; s < engines.size(); ++s) {
    const SessionSpec& spec = plan.sessions()[indices[s]];
    results[indices[s]] =
        summarize(*engines[s], spec.name, std::string{to_string(spec.config.governor)});
  }
}

/// One training batch: the exact train_next_on() control flow (chunked
/// episodes, convergence bookkeeping, episode resets) applied to a group
/// of cells lock-step. Grouping guarantees identical (max_duration,
/// episode_length) and stop_at_convergence unset, so every cell hits the
/// same chunk and reset boundaries.
void run_training_batch(const TrainingPlan& plan, const std::vector<std::size_t>& indices,
                        std::vector<std::optional<TrainingResult>>& slots,
                        BatchPhaseTimings* timings) {
  const std::size_t n = indices.size();
  const auto per_cell = [&] {
    for (const std::size_t idx : indices) {
      const TrainingSpec& cell = plan.cells()[idx];
      slots[idx] = train_next_on(cell.app_factory, cell.config, cell.options);
    }
  };
  // Singleton batches (max_batch = 1, early-stopping cells, degenerate
  // shares) go straight to the per-cell path - no point building an engine
  // here only to rebuild it inside train_next_on.
  if (n < 2) return per_cell();
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<core::NextAgent*> agents(n);
  engines.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TrainingSpec& cell = plan.cells()[indices[i]];
    engines.push_back(make_training_engine(cell.app_factory, cell.config, cell.options));
    agents[i] = dynamic_cast<core::NextAgent*>(engines[i]->meta());
    NEXTGOV_ASSERT(agents[i] != nullptr);
  }
  auto resident = make_resident(engines);
  // Ground-truth homogeneity failed (an engine with a foreign topology,
  // step or SoC): rare, and the per-cell path is the correct fallback.
  if (resident == nullptr) return per_cell();
  BatchPhaseTimings local;

  const TrainingOptions& options = plan.cells()[indices.front()].options;
  SimTime trained = SimTime::zero();
  std::uint64_t episode = 0;
  std::vector<TrainingConvergence> convergence(n);

  while (trained < options.max_duration) {
    SimTime episode_left = options.episode_length;
    while (episode_left.us() > 0 && trained < options.max_duration) {
      const SimTime chunk = std::min(kTrainingCheckChunk, episode_left);
      advance_resident(engines, *resident, chunk, timings != nullptr ? &local : nullptr);
      trained += chunk;
      episode_left = episode_left - chunk;
      for (std::size_t i = 0; i < n; ++i) {
        convergence[i].on_chunk(agents[i]->q_table().state_count(), agents[i]->decisions(),
                                trained.seconds());
      }
    }
    ++episode;
    // User re-opens the app (train_next_on semantics): fresh app + cold
    // thermal state per cell, learned Q-tables persist. reset_session is
    // lane-aware, so the attached batch resets along with the engine.
    for (std::size_t i = 0; i < n; ++i) {
      const TrainingSpec& cell = plan.cells()[indices[i]];
      engines[i]->reset_session(cell.app_factory(cell.options.seed + episode + 1));
    }
  }
  for (auto& e : engines) e->detach_thermal_batch();
  merge_phase_timings(timings, local);

  // The batch's wall time covers all n interleaved cells; attribute an
  // even share to each so per-cell wall_seconds stays comparable to
  // the per-cell path's measurement (consumers sum or rate it).
  const double wall_per_cell =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count() /
      static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    slots[indices[i]] = make_training_result(*agents[i], convergence[i], trained, wall_per_cell);
  }
}

/// Groups indices by key in first-appearance order (deterministic for a
/// given plan regardless of worker count).
template <typename Key, typename KeyFn>
std::vector<std::vector<std::size_t>> group_indices(std::size_t n, const KeyFn& key_of) {
  std::vector<Key> keys;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < n; ++i) {
    const Key key = key_of(i);
    std::size_t g = 0;
    while (g < keys.size() && !(keys[g] == key)) ++g;
    if (g == keys.size()) {
      keys.push_back(key);
      groups.emplace_back();
    }
    groups[g].push_back(i);
  }
  return groups;
}

/// Validates `options` and returns true when the plan forks (the caller
/// hands it to detail::execute_sharded); otherwise fills `report` with the
/// accounting of an in-process run: one shard, nothing forked.
bool forks(const ExecOptions& options, std::size_t cells, ShardReport* report) {
  require(options.phase_timings == nullptr || options.processes == 1,
          "ExecOptions: phase_timings requires processes = 1 (a forked worker cannot write "
          "the parent's sink)");
  if (resolve_workers(options.processes, cells) > 1) return true;
  if (report != nullptr) {
    *report = ShardReport{};
    if (cells > 0) report->shards.push_back(ShardOutcome{0, 0, cells, false, {}});
  }
  return false;
}

/// The in-process body both plan kinds share: group the cells by `key_of`
/// (lock-step compatibility), split the groups into batches and run each
/// batch through `run_batch` on the pool.
template <typename Key, typename KeyFn, typename BatchFn>
void run_batches(std::size_t cells, const ExecOptions& options, const KeyFn& key_of,
                 const BatchFn& run_batch) {
  const auto batches = make_batches(group_indices<Key>(cells, key_of),
                                    resolve_workers(options.workers, cells), options.max_batch);
  run_indexed_tasks(batches.size(), resolve_workers(options.workers, batches.size()),
                    [&](std::size_t b) { run_batch(batches[b]); });
}

}  // namespace

std::vector<SessionResult> execute(const RunPlan& plan, const ExecOptions& options,
                                   ShardReport* report) {
  if (forks(options, plan.size(), report)) return detail::execute_sharded(plan, options, report);
  std::vector<SessionResult> results(plan.size());
  // Lock-step needs every session of a batch to run the same tick count.
  run_batches<std::int64_t>(
      plan.size(), options,
      [&](std::size_t i) { return plan.sessions()[i].config.duration.us(); },
      [&](const std::vector<std::size_t>& batch) {
        run_session_batch(plan, batch, results, options.phase_timings);
      });
  return results;
}

std::vector<TrainingResult> execute(const TrainingPlan& plan, const ExecOptions& options,
                                    ShardReport* report) {
  if (forks(options, plan.size(), report)) return detail::execute_sharded(plan, options, report);
  // TrainingResult carries a QTable (no default state), so cells land in
  // optional slots and are moved out once the pool has drained.
  std::vector<std::optional<TrainingResult>> slots(plan.size());
  // Early-stopping cells have data-dependent control flow, so they can't
  // share a lock-step clock; a negative key gives each its own singleton
  // group (distinct keys), which run_training_batch routes to the per-cell
  // path.
  std::int64_t next_singleton = -1;
  run_batches<std::pair<std::int64_t, std::int64_t>>(
      plan.size(), options,
      [&](std::size_t i) {
        const TrainingOptions& o = plan.cells()[i].options;
        if (o.stop_at_convergence) return std::pair{std::int64_t{-1}, next_singleton--};
        return std::pair{o.max_duration.us(), o.episode_length.us()};
      },
      [&](const std::vector<std::size_t>& batch) {
        run_training_batch(plan, batch, slots, options.phase_timings);
      });
  std::vector<TrainingResult> results;
  results.reserve(plan.size());
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace nextgov::sim
