// phone.cpp - phone_deploy: the phone's loop (north-star path 1).
//
// Set-up trains one Next table per scenario of a six-scenario mix (a game,
// video, the multi-app Fig. 1 session, a 120 Hz panel, a 35 C room and
// background bursts). The timed phase then steps one detached session at a
// time with Engine::step, greedy on those tables, timing blocks of 1000
// steps (one simulated second) - never a single sub-microsecond step.
//
// The traced run steps a fixed group of sessions alternately one at a time
// untraced (the reference for attribution) and as a lock-step group of
// detached engines whose phases are timed across the whole group, so each
// clock pair covers eight session-ticks. Sessions are independent, so the
// group is bit-identical to stepping each engine alone - checked, together
// with sim::run_session, on every run.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace nextgov;

constexpr std::int64_t kBlockSteps = 1000;  // one simulated second at the 1 ms step
constexpr std::size_t kGroupLanes = 8;
constexpr SimTime kGroupDuration = SimTime::from_seconds(60.0);
constexpr double kTrainBudgetS = 1500.0;
constexpr int kSetupRepeats = 3;
/// Timed sessions whose agent reward makes mean_reward: thirty cycles of
/// the mix, so every scenario counts thirty times. Six cycles left the
/// reward spreading 10-13 % from seed to seed.
constexpr std::size_t kRewardSessions = 180;
/// Lock-step ticks per traced block: 10k session-steps per span group.
constexpr std::int64_t kTraceBlockTicks = 1250;

constexpr std::size_t kMixSize = 6;

sim::ScenarioSpec mix_scenario(std::size_t i) {
  switch (i) {
    case 0: return sim::app_scenario(workload::AppId::kLineage);
    case 1: return sim::app_scenario(workload::AppId::kYoutube);
    case 2: return sim::scenario("fig1_session");
    case 3: return sim::scenario("lineage_120hz");
    case 4: return sim::scenario("pubg_hot35");
    default: return sim::scenario("spotify_bursty");
  }
}

struct Deployment {
  std::vector<sim::ScenarioSpec> specs;
  std::vector<sim::AppFactory> factories;
  std::vector<rl::QTable> tables;
};

/// Set-up: one greedy-deployable table per mix scenario, trained online in
/// one thread (a pool of four would time the scheduling of six cells). The
/// tables are the shipped policy, so their training seed is fixed; the
/// workload seed picks the sessions a user runs on them.
Deployment set_up() {
  constexpr std::uint64_t kTrainingSeed = 2020;
  Deployment d;
  sim::TrainingPlan plan;
  for (std::size_t i = 0; i < kMixSize; ++i) {
    sim::ScenarioSpec spec = mix_scenario(i);
    spec.base_seed = sim::derive_seed(kTrainingSeed, i);
    sim::TrainingOptions base;
    base.max_duration = SimTime::from_seconds(kTrainBudgetS);
    d.factories.push_back(spec.app_factory());
    plan.add(d.factories.back(), spec.name,
             sim::adapt_next_config(core::NextConfig{}, spec.refresh_hz, spec.ambient),
             spec.training_options(base));
    d.specs.push_back(std::move(spec));
  }
  for (sim::TrainingResult& r : sim::run_training_plan(plan, {.workers = 1})) {
    d.tables.push_back(std::move(r.table));
  }
  return d;
}

struct Session {
  std::size_t mix;
  std::uint64_t seed;
};

/// The seeded session sequence: every run of kMixSize consecutive sessions
/// holds each scenario once, in a seeded order, so the mix's proportions -
/// and with them the block-time distribution - do not depend on the seed.
Session session_at(std::uint64_t seed, std::size_t k) {
  const std::size_t cycle = k / kMixSize;
  std::array<std::size_t, kMixSize> order{};
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sim::derive_seed(seed, 2 * (cycle * kMixSize + a) + 1) <
           sim::derive_seed(seed, 2 * (cycle * kMixSize + b) + 1);
  });
  return {order[k % kMixSize], sim::derive_seed(seed, 2 * k)};
}

/// Lane k of the fixed check group: the mix's scenarios round-robin, so
/// every seed's group covers the whole mix.
Session group_session(std::uint64_t seed, std::size_t k) {
  return {k % kMixSize, sim::derive_seed(seed, 1'000'000 + k)};
}

sim::ExperimentConfig deploy_config(const Deployment& d, const Session& s,
                                    std::optional<SimTime> duration = std::nullopt) {
  sim::ExperimentConfig cfg = d.specs[s.mix].experiment_config(sim::GovernorKind::kNext, s.seed);
  cfg.trained_table = &d.tables[s.mix];
  if (duration) cfg.duration = *duration;
  return cfg;
}

std::int64_t steps_of(const sim::ExperimentConfig& cfg) {
  return cfg.duration.us() / SimTime::from_ms(1).us();
}

sim::SessionResult summary(const sim::Engine& e, const Deployment& d, const Session& s) {
  return sim::summarize(e, d.specs[s.mix].name, "next");
}

void check_sane(Checks& checks, const sim::SessionResult& r, double refresh_hz) {
  checks.expect(std::isfinite(r.avg_power_w) && r.avg_power_w > 0.0 &&
                    std::isfinite(r.avg_temp_big_c) && r.avg_fps >= 0.0 &&
                    r.avg_fps <= refresh_hz + 1e-9 && r.energy_j > 0.0,
                "phone_deploy: session summary out of range");
}

/// Steps one detached engine for `steps` ticks, timing blocks of
/// kBlockSteps into `block_ns` (reserved by the caller) when given.
void hand_step(sim::Engine& e, std::int64_t steps, std::vector<double>* block_ns) {
  std::int64_t done = 0;
  for (; block_ns != nullptr && done + kBlockSteps <= steps; done += kBlockSteps) {
    const std::int64_t t0 = now_ns();
    for (std::int64_t i = 0; i < kBlockSteps; ++i) e.step();
    block_ns->push_back(static_cast<double>(now_ns() - t0));
  }
  for (; done < steps; ++done) e.step();
}

struct GroupRun {
  std::vector<sim::SessionResult> results;
  std::uint64_t decisions{0};
  std::int64_t wall_ns{0};
  std::int64_t session_steps{0};
  std::int64_t reps{0};
};

constexpr std::array<std::string_view, 6> kPhaseSpans{
    "workload_render", "soc.power", "thermal.rc", "governors.observe", "core.meta",
    "sim.finish"};

std::vector<std::unique_ptr<sim::Engine>> make_group(const Deployment& d, std::uint64_t seed,
                                                     std::vector<Session>& sessions) {
  std::vector<std::unique_ptr<sim::Engine>> engines;
  for (std::size_t k = 0; k < kGroupLanes; ++k) {
    sessions.push_back(group_session(seed, k));
    const Session& s = sessions.back();
    engines.push_back(sim::make_engine(d.factories[s.mix], deploy_config(d, s, kGroupDuration)));
  }
  return engines;
}

/// Cost of one now_ns() read: the median over batches of back-to-back
/// reads. A timed phase interval holds one read's latency, which the traced
/// group subtracts.
std::int64_t clock_read_ns() {
  constexpr int kReads = 1000;
  std::vector<double> per_read;
  for (int batch = 0; batch < 64; ++batch) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kReads; ++i) (void)now_ns();
    per_read.push_back(static_cast<double>(now_ns() - t0) / kReads);
  }
  return static_cast<std::int64_t>(median(per_read));
}

/// The check group stepped lock-step, phase by phase across all lanes.
/// With `trace`, one phase per tick - drawn at random, so no phase's
/// cadence (a control point every 100 ticks) aliases with the choice - is
/// timed across the whole group: two clock reads per eight session-ticks.
/// Each block of kTraceBlockTicks ticks becomes a parent span whose six
/// phase children hold each phase's estimated time over the block
/// (sampled time less `clock_ns` per sample, scaled by ticks / samples),
/// laid end to end.
GroupRun lockstep_group(const Deployment& d, std::uint64_t seed, Trace* trace,
                        std::int64_t clock_ns = 0) {
  std::vector<Session> sessions;
  const auto engines = make_group(d, seed, sessions);
  const auto phase = [&](std::size_t p) {
    switch (p) {
      case 0: for (auto& e : engines) e->step_pre_power(); break;
      case 1: for (auto& e : engines) e->apply_power_model(); break;
      case 2: for (auto& e : engines) e->thermal().step(e->config().step); break;
      case 3: for (auto& e : engines) e->step_post_observe(); break;
      case 4: for (auto& e : engines) e->step_post_meta(); break;
      default: for (auto& e : engines) e->step_post_finish(); break;
    }
  };
  const std::int64_t ticks = kGroupDuration.us() / SimTime::from_ms(1).us();
  std::uint64_t draw = sim::derive_seed(seed, 7) | 1;  // xorshift64 state
  GroupRun run;
  const std::int64_t start = now_ns();
  for (std::int64_t done = 0; done < ticks;) {
    const std::int64_t block_ticks = std::min(kTraceBlockTicks, ticks - done);
    std::array<std::int64_t, kPhaseSpans.size()> acc{};
    std::array<std::int64_t, kPhaseSpans.size()> samples{};
    const std::int64_t block_start = now_ns();
    for (std::int64_t t = 0; t < block_ticks; ++t) {
      std::size_t timed = kPhaseSpans.size();
      if (trace != nullptr) {
        draw ^= draw << 13;
        draw ^= draw >> 7;
        draw ^= draw << 17;
        timed = draw % kPhaseSpans.size();
      }
      for (std::size_t p = 0; p < kPhaseSpans.size(); ++p) {
        if (p != timed) {
          phase(p);
          continue;
        }
        const std::int64_t t0 = now_ns();
        phase(p);
        acc[p] += now_ns() - t0;
        ++samples[p];
      }
    }
    done += block_ticks;
    if (trace != nullptr) {
      const std::size_t parent = trace->add("sim.lockstep_block", block_start, now_ns());
      std::int64_t cursor = block_start;
      for (std::size_t p = 0; p < acc.size(); ++p) {
        const std::int64_t net = std::max<std::int64_t>(0, acc[p] - samples[p] * clock_ns);
        const std::int64_t est = samples[p] > 0 ? net * block_ticks / samples[p] : 0;
        trace->add(kPhaseSpans[p], cursor, cursor + est, parent);
        cursor += est;
      }
    }
  }
  run.wall_ns = now_ns() - start;
  run.session_steps = ticks * static_cast<std::int64_t>(kGroupLanes);
  for (std::size_t k = 0; k < engines.size(); ++k) {
    run.results.push_back(summary(*engines[k], d, sessions[k]));
    run.decisions += engines[k]->next_agent()->decisions();
  }
  return run;
}

struct HandRun {
  std::vector<sim::SessionResult> results;
  std::vector<double> block_ns;
  std::uint64_t allocations{0};
  std::int64_t steps{0};
};

/// The check group's sessions stepped one at a time with Engine::step.
void hand_step_group(const Deployment& d, std::uint64_t seed, HandRun& run) {
  run.results.clear();
  for (std::size_t k = 0; k < kGroupLanes; ++k) {
    const Session s = group_session(seed, k);
    const sim::ExperimentConfig cfg = deploy_config(d, s, kGroupDuration);
    const auto engine = sim::make_engine(d.factories[s.mix], cfg);
    const std::uint64_t a0 = allocations();
    hand_step(*engine, steps_of(cfg), &run.block_ns);
    run.allocations += allocations() - a0;
    run.steps += steps_of(cfg);
    run.results.push_back(summary(*engine, d, s));
  }
}

/// sim::run_session on each check-group session vs the hand-stepped and
/// lock-step results.
void check_group(Checks& checks, const Deployment& d, std::uint64_t seed,
                 const std::vector<sim::SessionResult>& hand,
                 const std::vector<sim::SessionResult>& group) {
  for (std::size_t k = 0; k < kGroupLanes; ++k) {
    const Session s = group_session(seed, k);
    const sim::SessionResult ref =
        sim::run_session(d.factories[s.mix], d.specs[s.mix].name, deploy_config(d, s, kGroupDuration));
    checks.expect(sim::bit_identical(ref, hand[k]),
                  "phone_deploy: hand-stepped session differs from sim::run_session");
    checks.expect(sim::bit_identical(ref, group[k]),
                  "phone_deploy: lock-step group session differs from sim::run_session");
    check_sane(checks, ref, d.specs[s.mix].refresh_hz);
  }
}

std::size_t total_states(const Deployment& d) {
  std::size_t n = 0;
  for (const rl::QTable& t : d.tables) n += t.state_count();
  return n;
}

}  // namespace

void run_phone_deploy(const RunArgs& args, RunResult& out) {
  // Set-up, several times: the tables must come out identical each time.
  std::vector<double> setup_s;
  Deployment d;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t t0 = now_ns();
    Deployment fresh = set_up();
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (rep == 0) {
      d = std::move(fresh);
      continue;
    }
    for (std::size_t i = 0; i < kMixSize; ++i) {
      out.checks.expect(fresh.tables[i] == d.tables[i],
                        "phone_deploy: repeated set-up trained a different table");
    }
  }
  out.measured.add("setup_s", median(setup_s), "s");
  out.measured.add("rl.states", static_cast<double>(total_states(d)), "count");

  // Warm-up: the first cycle of the seeded sequence, untimed. A fixed count,
  // so the timed sessions - and the reward over them - never depend on the
  // host's speed.
  std::size_t next_session = 0;
  for (; next_session < kMixSize; ++next_session) {
    const Session s = session_at(args.seed, next_session);
    sim::make_engine(d.factories[s.mix], deploy_config(d, s))->run(SimTime::from_seconds(60.0));
  }

  if (!args.trace) {
    // Timed phase: whole sessions of the seeded mix, one at a time, until
    // the budget is spent; only the step blocks are timed.
    std::vector<double> block_ns;
    block_ns.reserve(static_cast<std::size_t>(args.seconds * 20000.0) + 1000);
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
    std::size_t sessions = 0;
    double reward = 0.0;
    std::vector<std::size_t> cycle_ends;  // block_ns index after each whole cycle
    const auto deploy = [&](std::vector<double>* blocks) {
      const Session s = session_at(args.seed, next_session++);
      const sim::ExperimentConfig cfg = deploy_config(d, s);
      const auto engine = sim::make_engine(d.factories[s.mix], cfg);
      hand_step(*engine, steps_of(cfg), blocks);
      if (blocks != nullptr && next_session % kMixSize == 0) cycle_ends.push_back(blocks->size());
      check_sane(out.checks, summary(*engine, d, s), d.specs[s.mix].refresh_hz);
      if (sessions++ < kRewardSessions) reward += engine->next_agent()->mean_reward();
    };
    while (now_ns() < deadline && block_ns.size() + 400 < block_ns.capacity()) deploy(&block_ns);
    // The reward covers a fixed number of sessions, whatever the budget.
    while (sessions < kRewardSessions) deploy(nullptr);
    out.measured.add("mean_reward", reward / kRewardSessions, "reward");
    // Throughput: the median over whole cycles of the mix, so every window
    // holds each scenario once and a burst of host contention moves it no
    // more than the block median.
    std::vector<double> cycle_rates;
    std::size_t begin = 0;
    for (std::size_t end : cycle_ends) {
      double ns = 0.0;
      for (std::size_t i = begin; i < end; ++i) ns += block_ns[i];
      const double sim_s = static_cast<double>((end - begin) * kBlockSteps) * 1e-3;
      if (end > begin) cycle_rates.push_back(sim_s / (ns * 1e-9));
      begin = end;
    }
    out.checks.expect(!cycle_rates.empty(), "phone_deploy: no whole cycle in the timed phase");
    out.measured.add("sim_s_per_host_s", median(cycle_rates), "sim-s/s");
    out.measured.add("sim.rate_cycles", static_cast<double>(cycle_rates.size()), "count");
    out.measured.add("op_ms_p50", percentile(block_ns, 50).value_or(NAN) * 1e-6, "ms");
    out.measured.add("op_samples", static_cast<double>(block_ns.size()), "count");

    HandRun hand;
    hand_step_group(d, args.seed, hand);
    const GroupRun group = lockstep_group(d, args.seed, nullptr);
    check_group(out.checks, d, args.seed, hand.results, group.results);
    return;
  }

  // Traced run: the fixed check group, stepped alternately one session at
  // a time untraced and lock-step with phase spans, so drift in the host's
  // speed reaches both sides alike.
  HandRun hand;
  hand.block_ns.reserve(static_cast<std::size_t>(args.seconds * 20000.0) + 1000);
  const std::int64_t clock_ns = clock_read_ns();
  std::uint64_t allocs_first = 0;
  std::int64_t steps_first = 0;
  std::vector<sim::SessionResult> hand_first, group_first;
  GroupRun traced;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  while (now_ns() < deadline || group_first.empty()) {
    hand_step_group(d, args.seed, hand);
    GroupRun rep = lockstep_group(d, args.seed, &out.trace, clock_ns);
    if (group_first.empty()) {
      hand_first = hand.results;
      allocs_first = hand.allocations;
      steps_first = hand.steps;
      group_first = rep.results;
      traced.decisions = rep.decisions;
    }
    traced.wall_ns += rep.wall_ns;
    traced.session_steps += rep.session_steps;
    ++traced.reps;
  }
  double hand_ns = 0.0;
  for (double ns : hand.block_ns) hand_ns += ns;
  const double untraced_ns_per_step = hand_ns / static_cast<double>(hand.steps);
  check_group(out.checks, d, args.seed, hand_first, group_first);

  const auto by_name = out.trace.self_ns_by_name();
  const auto per_step = [&](std::string_view span) {
    const auto it = by_name.find(span);
    const double ns = it == by_name.end() ? 0.0 : static_cast<double>(it->second);
    return ns / static_cast<double>(traced.session_steps);
  };
  const double meta = per_step("core.meta");
  const double finish = per_step("sim.finish");
  out.measured.add("workload_render.ns_per_step", per_step("workload_render"), "ns");
  out.measured.add("soc.power_ns_per_step", per_step("soc.power"), "ns");
  out.measured.add("thermal.rc_ns_per_step", per_step("thermal.rc"), "ns");
  out.measured.add("governors.observe_ns_per_step", per_step("governors.observe"), "ns");
  out.measured.add("core.post_ns_per_step", meta + finish, "ns");
  out.measured.add("core.meta_ns_per_step", meta, "ns");
  out.measured.add("sim.finish_ns_per_step", finish, "ns");
  out.measured.add("core.ns_per_decision",
                   meta * static_cast<double>(traced.session_steps) /
                       static_cast<double>(traced.decisions * static_cast<std::uint64_t>(traced.reps)),
                   "ns");
  out.measured.add("core.decisions", static_cast<double>(traced.decisions), "count");
  out.measured.add("sim.allocs_per_step",
                   static_cast<double>(allocs_first) / static_cast<double>(steps_first), "count");
  const double p50 = percentile(hand.block_ns, 50).value_or(NAN);
  const double p90 = percentile(hand.block_ns, 90).value_or(NAN);
  out.measured.add("sim.step_ns_p50", p50 / kBlockSteps, "ns");
  out.measured.add("sim.step_ns_p90", p90 / kBlockSteps, "ns");
  out.measured.add("sim.op_p90_over_p50", p90 / p50, "ratio");

  double layers_ns_per_step = 0.0;
  for (std::string_view span : kPhaseSpans) layers_ns_per_step += per_step(span);
  const double traced_ns_per_step =
      static_cast<double>(traced.wall_ns) / static_cast<double>(traced.session_steps);
  out.measured.add("trace.remainder_pct",
                   100.0 * (untraced_ns_per_step - layers_ns_per_step) / untraced_ns_per_step, "%");
  out.measured.add("trace.overhead_pct",
                   100.0 * (traced_ns_per_step - untraced_ns_per_step) / untraced_ns_per_step, "%");
}

}  // namespace perfbench
