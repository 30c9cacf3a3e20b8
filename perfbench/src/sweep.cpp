// sweep.cpp - train_eval_sweep: a training run and a batched evaluation
// sweep (north-star paths 2 and 3).
//
// One repetition trains Next on every catalog app x four seeds through
// run_training_plan_batched, then evaluates schedutil, Next on the fresh
// tables and (games) Int. QoS PM on every app x four seeds through
// run_plan_batched. Two worker threads at most, each with at least four
// sessions, so the lock-step structure-of-arrays path engages. Repetitions
// run until the budget is spent; every one must reproduce the first
// bit-for-bit, and one app's cells are re-run through the serial
// run_training_plan / run_plan as the reference.
#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "workload/apps.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace nextgov;

constexpr std::size_t kSeedsPerApp = 4;
constexpr double kTrainBudgetS = 1200.0;
constexpr int kSetupRepeats = 15;

/// The training half of one repetition: app x seed cells, app-major.
sim::TrainingPlan training_plan(std::uint64_t seed) {
  sim::TrainingPlan plan;
  const auto apps = workload::all_apps();
  for (std::size_t a = 0; a < apps.size(); ++a) {
    for (std::size_t j = 0; j < kSeedsPerApp; ++j) {
      sim::TrainingOptions options;
      options.max_duration = SimTime::from_seconds(kTrainBudgetS);
      options.seed = sim::derive_seed(seed, 1000 + a * kSeedsPerApp + j);
      plan.add(apps[a], core::NextConfig{}, options);
    }
  }
  return plan;
}

struct EvalCell {
  std::size_t app;
  sim::GovernorKind governor;
};

/// The evaluation half: per app, schedutil / Next (table of the same app
/// and seed index) / Int. QoS for games, each over the app's seeds.
sim::RunPlan eval_plan(std::uint64_t seed, const std::vector<sim::TrainingResult>& trained,
                       std::vector<EvalCell>* cells = nullptr) {
  sim::RunPlan plan;
  const auto apps = workload::all_apps();
  for (std::size_t a = 0; a < apps.size(); ++a) {
    std::vector<sim::GovernorKind> governors{sim::GovernorKind::kSchedutil,
                                             sim::GovernorKind::kNext};
    if (workload::is_game(apps[a])) governors.push_back(sim::GovernorKind::kIntQos);
    for (sim::GovernorKind g : governors) {
      for (std::size_t j = 0; j < kSeedsPerApp; ++j) {
        sim::ExperimentConfig cfg = sim::app_scenario(apps[a]).experiment_config(
            g, sim::derive_seed(seed, 5000 + a * kSeedsPerApp + j));
        if (g == sim::GovernorKind::kNext) cfg.trained_table = &trained[a * kSeedsPerApp + j].table;
        plan.add(apps[a], cfg);
        if (cells != nullptr) cells->push_back({a, g});
      }
    }
  }
  return plan;
}

bool training_identical(const sim::TrainingResult& a, const sim::TrainingResult& b) {
  return a.converged == b.converged && a.sim_seconds == b.sim_seconds &&
         a.decisions == b.decisions && a.final_mean_reward == b.final_mean_reward &&
         a.states_visited == b.states_visited && a.table == b.table;
}

double training_sim_s(const sim::TrainingPlan& plan) {
  double s = 0.0;
  for (const sim::TrainingSpec& c : plan.cells()) s += c.options.max_duration.seconds();
  return s;
}

double eval_sim_s(const sim::RunPlan& plan) {
  double s = 0.0;
  for (const sim::SessionSpec& c : plan.sessions()) s += c.config.duration.seconds();
  return s;
}

struct Rep {
  std::vector<sim::TrainingResult> trained;
  std::vector<sim::SessionResult> evaluated;
  double train_s{0.0};
  double eval_s{0.0};
  std::int64_t train_start{0}, train_end{0}, eval_start{0}, eval_end{0};
};

Rep run_rep(const sim::TrainingPlan& tplan, std::uint64_t seed, std::size_t workers,
            sim::BatchPhaseTimings* train_phases, sim::BatchPhaseTimings* eval_phases) {
  Rep rep;
  rep.train_start = now_ns();
  rep.trained = sim::run_training_plan_batched(
      tplan, {.workers = workers, .max_batch = 0, .phase_timings = train_phases});
  rep.train_end = now_ns();
  const sim::RunPlan eplan = eval_plan(seed, rep.trained);
  rep.eval_start = now_ns();
  rep.evaluated = sim::run_plan_batched(
      eplan, {.workers = workers, .max_batch = 0, .phase_timings = eval_phases});
  rep.eval_end = now_ns();
  rep.train_s = static_cast<double>(rep.train_end - rep.train_start) * 1e-9;
  rep.eval_s = static_cast<double>(rep.eval_end - rep.eval_start) * 1e-9;
  return rep;
}

void check_same(Checks& checks, const Rep& first, const Rep& again) {
  bool same = first.trained.size() == again.trained.size() &&
              first.evaluated.size() == again.evaluated.size();
  for (std::size_t i = 0; same && i < first.trained.size(); ++i) {
    same = training_identical(first.trained[i], again.trained[i]);
  }
  for (std::size_t i = 0; same && i < first.evaluated.size(); ++i) {
    same = sim::bit_identical(first.evaluated[i], again.evaluated[i]);
  }
  checks.expect(same, "train_eval_sweep: a repetition differs from the first");
}

/// Paper-fidelity numbers of one repetition: Next vs schedutil, pooled
/// over every app and seed.
void fidelity(const Rep& rep, const std::vector<EvalCell>& cells, RunResult& out) {
  double sched_w = 0, next_w = 0, sched_t = 0, next_t = 0, sched_fps = 0, next_fps = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const sim::SessionResult& r = rep.evaluated[i];
    if (cells[i].governor == sim::GovernorKind::kSchedutil) {
      sched_w += r.avg_power_w;
      sched_t += r.avg_temp_big_c;
      sched_fps += r.avg_fps;
    } else if (cells[i].governor == sim::GovernorKind::kNext) {
      next_w += r.avg_power_w;
      next_t += r.avg_temp_big_c;
      next_fps += r.avg_fps;
    }
  }
  out.measured.add("fidelity.power_saving_pct", 100.0 * (1.0 - next_w / sched_w), "%");
  out.measured.add("fidelity.temp_big_reduction_pct", 100.0 * (1.0 - next_t / sched_t), "%");
  out.measured.add("fidelity.fps_ratio_pct", 100.0 * next_fps / sched_fps, "%");
  double reward = 0.0;
  std::uint64_t decisions = 0;
  std::size_t states = 0;
  for (const sim::TrainingResult& t : rep.trained) {
    reward += t.final_mean_reward / static_cast<double>(rep.trained.size());
    decisions += t.decisions;
    states += t.states_visited;
  }
  out.measured.add("mean_reward", reward, "reward");
  out.measured.add("core.decisions", static_cast<double>(decisions), "count");
  out.measured.add("rl.states", static_cast<double>(states), "count");
}

/// Span names of the runner's six batch phases, per call; the span's self
/// time per repetition is printed under the same name.
constexpr std::array<std::string_view, 6> kTrainSpans{
    "sim.batch_pre_s.train",         "soc.power_batch_s.train", "thermal.rc_batch_s.train",
    "governors.observe_batch_s.train", "core.post_batch_s.train", "sim.batch_scatter_s.train"};
constexpr std::array<std::string_view, 6> kEvalSpans{
    "sim.batch_pre_s.eval",         "soc.power_batch_s.eval", "thermal.rc_batch_s.eval",
    "governors.observe_batch_s.eval", "core.post_batch_s.eval", "sim.batch_scatter_s.eval"};

/// One batched call as a parent span whose six children hold the call's
/// phase times. The runner sums them over its workers, so each child holds
/// the per-worker mean, laid end to end from the call's start.
void add_call_spans(Trace& trace, std::string_view call, std::int64_t start, std::int64_t end,
                    const sim::BatchPhaseTimings& p, const std::array<std::string_view, 6>& names,
                    std::size_t workers) {
  const std::size_t parent = trace.add(call, start, end);
  const std::array<double, 6> phase_s{p.pre_s,     p.power_s, p.thermal_s,
                                      p.observe_s, p.post_s,  p.scatter_s};
  std::int64_t cursor = start;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto ns = static_cast<std::int64_t>(phase_s[i] / static_cast<double>(workers) * 1e9);
    trace.add(names[i], cursor, cursor + ns, parent);
    cursor += ns;
  }
}

}  // namespace

void run_train_eval_sweep(const RunArgs& args, RunResult& out) {
  const std::size_t workers = bench_workers();

  // Set-up, several times: build the seeded plan and warm the code and
  // caches with a short lock-step training call in one thread (a pool
  // would mostly time its own scheduling, as in phone_deploy).
  std::vector<double> setup_s;
  sim::TrainingPlan tplan;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t t0 = now_ns();
    tplan = training_plan(args.seed);
    sim::TrainingPlan warm;
    for (std::size_t i = 0; i < 4; ++i) {
      sim::TrainingSpec c = tplan.cells()[i * kSeedsPerApp];
      c.options.max_duration = SimTime::from_seconds(120.0);
      warm.add(c.app_factory, c.name, c.config, c.options);
    }
    (void)sim::run_training_plan_batched(warm, {.workers = 1});
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  out.measured.add("setup_s", median(setup_s), "s");

  // Timed phase: repetitions until the budget is spent (half of it in the
  // traced run, whose other half runs the traced repetitions).
  Rep first;
  std::vector<double> rep_ms;
  double train_host = 0.0, eval_host = 0.0;
  const double budget = args.trace ? 0.5 * args.seconds : args.seconds;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(budget * 1e9);
  for (int k = 0; now_ns() < deadline || k == 0; ++k) {
    Rep rep = run_rep(tplan, args.seed, workers, nullptr, nullptr);
    rep_ms.push_back((rep.train_s + rep.eval_s) * 1e3);
    train_host += rep.train_s;
    eval_host += rep.eval_s;
    if (k == 0) {
      first = std::move(rep);
    } else {
      check_same(out.checks, first, rep);
    }
  }
  std::vector<EvalCell> cells;
  const sim::RunPlan eplan = eval_plan(args.seed, first.trained, &cells);
  const auto reps = static_cast<double>(rep_ms.size());
  const double train_sim = training_sim_s(tplan) * reps;
  const double eval_sim = eval_sim_s(eplan) * reps;
  fidelity(first, cells, out);
  out.measured.add("op_ms_p50", median(rep_ms), "ms");
  out.measured.add("op_samples", reps, "count");
  out.measured.add("sim_s_per_host_s", (train_sim + eval_sim) / (train_host + eval_host),
                   "sim-s/s");
  out.measured.add("sim.train_sim_s_per_host_s", train_sim / train_host, "sim-s/s");
  out.measured.add("sim.eval_sim_s_per_host_s", eval_sim / eval_host, "sim-s/s");
  out.measured.add("sim.train_pct", 100.0 * train_host / (train_host + eval_host), "%");
  for (const sim::SessionResult& r : first.evaluated) {
    out.checks.expect(r.avg_power_w > 0.0 && r.avg_fps >= 0.0 && r.avg_fps <= 60.0 + 1e-9,
                      "train_eval_sweep: session summary out of range");
  }

  // Serial reference: one app's training cells and evaluation sessions,
  // chosen by the seed, through the serial runner (workers = 1).
  const std::size_t app = sim::derive_seed(args.seed, 77) % workload::all_apps().size();
  sim::TrainingPlan tsub;
  for (std::size_t j = 0; j < kSeedsPerApp; ++j) {
    const sim::TrainingSpec& c = tplan.cells()[app * kSeedsPerApp + j];
    tsub.add(c.app_factory, c.name, c.config, c.options);
  }
  sim::RunPlan esub;
  std::vector<std::size_t> eval_idx;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].app != app) continue;
    const sim::SessionSpec& s = eplan.sessions()[i];
    esub.add(s.app_factory, s.name, s.config);
    eval_idx.push_back(i);
  }
  const std::int64_t s0 = now_ns();
  const auto serial_trained = sim::run_training_plan(tsub, {.workers = 1});
  const auto serial_eval = sim::run_plan(esub, {.workers = 1});
  const double serial_s = static_cast<double>(now_ns() - s0) * 1e-9;
  for (std::size_t j = 0; j < kSeedsPerApp; ++j) {
    out.checks.expect(training_identical(serial_trained[j], first.trained[app * kSeedsPerApp + j]),
                      "train_eval_sweep: batched training differs from the serial runner");
  }
  for (std::size_t i = 0; i < eval_idx.size(); ++i) {
    out.checks.expect(sim::bit_identical(serial_eval[i], first.evaluated[eval_idx[i]]),
                      "train_eval_sweep: batched evaluation differs from the serial runner");
  }
  if (!args.trace) return;

  // Traced run: the same subset batched in one worker (the lock-step gain
  // alone), then repetitions with the runner's own phase timings.
  const std::int64_t b0 = now_ns();
  (void)sim::run_training_plan_batched(tsub, {.workers = 1});
  (void)sim::run_plan_batched(esub, {.workers = 1});
  out.measured.add("sim.serial_ref_ratio", serial_s / (static_cast<double>(now_ns() - b0) * 1e-9),
                   "ratio");

  double traced_host = 0.0;
  int traced_reps = 0;
  sim::BatchPhaseTimings all;  // both calls, every traced repetition
  double train_post_s = 0.0;
  std::int64_t lockstep_ticks = 0;
  const std::int64_t traced_deadline = now_ns() + static_cast<std::int64_t>(budget * 1e9);
  while (now_ns() < traced_deadline || traced_reps == 0) {
    sim::BatchPhaseTimings train_phases, eval_phases;
    const Rep rep = run_rep(tplan, args.seed, workers, &train_phases, &eval_phases);
    check_same(out.checks, first, rep);
    traced_host += rep.train_s + rep.eval_s;
    if (++traced_reps == 1) lockstep_ticks = train_phases.ticks + eval_phases.ticks;
    for (const sim::BatchPhaseTimings* p : {&train_phases, &eval_phases}) {
      all.pre_s += p->pre_s;
      all.power_s += p->power_s;
      all.thermal_s += p->thermal_s;
      all.observe_s += p->observe_s;
      all.post_s += p->post_s;
      all.ticks += p->ticks;
    }
    train_post_s += train_phases.post_s;
    add_call_spans(out.trace, "sim.train_call", rep.train_start, rep.train_end, train_phases,
                   kTrainSpans, workers);
    add_call_spans(out.trace, "sim.eval_call", rep.eval_start, rep.eval_end, eval_phases,
                   kEvalSpans, workers);
  }
  // Engine layers: the runner's phase time per lock-step session-step.
  const auto per_step = [&](double phase_s) {
    return phase_s * 1e9 / static_cast<double>(all.ticks);
  };
  out.measured.add("workload_render.ns_per_step", per_step(all.pre_s), "ns");
  out.measured.add("soc.power_ns_per_step", per_step(all.power_s), "ns");
  out.measured.add("thermal.rc_ns_per_step", per_step(all.thermal_s), "ns");
  out.measured.add("governors.observe_ns_per_step", per_step(all.observe_s), "ns");
  out.measured.add("core.post_ns_per_step", per_step(all.post_s), "ns");
  out.measured.add("core.ns_per_decision",
                   train_post_s * 1e9 / traced_reps /
                       out.measured.find("core.decisions")->value,
                   "ns");
  out.measured.add("sim.lockstep_frac",
                   static_cast<double>(lockstep_ticks) /
                       ((training_sim_s(tplan) + eval_sim_s(eplan)) * 1000.0),
                   "fraction");

  // Per call: seconds of one worker per repetition in each phase.
  const auto by_name = out.trace.self_ns_by_name();
  double layers_s = 0.0;
  for (const auto* names : {&kTrainSpans, &kEvalSpans}) {
    for (std::string_view name : *names) {
      const double s = static_cast<double>(by_name.find(name)->second) * 1e-9 / traced_reps;
      out.measured.add(std::string{name}, s, "s");
      layers_s += s;
    }
  }
  const double untraced_rep_s = (train_host + eval_host) / reps;
  const double traced_rep_s = traced_host / traced_reps;
  out.measured.add("trace.remainder_pct", 100.0 * (untraced_rep_s - layers_s) / untraced_rep_s,
                   "%");
  out.measured.add("trace.overhead_pct", 100.0 * (traced_rep_s - untraced_rep_s) / untraced_rep_s,
                   "%");
}

}  // namespace perfbench
