// perf_thermal_batch - SoA batch thermal stepping vs per-session stepping.
//
// Fleet-scale sweeps advance hundreds of sessions through the same Note 9
// RcTopology; this bench tracks how much the structure-of-arrays batch
// stepper (thermal/rc_batch.hpp) gains over stepping each session's
// RcNetwork individually, and gates the whole measurement on the batch's
// bit-identity contract (exact equality of every node temperature of every
// session, plus engine-level lock-step vs per-session sim::execute()
// bit-identity).
// Results land in bench_out/BENCH_thermal_batch.json.
//
// `--smoke` shrinks the measurement so CI can run it on every PR; the
// identity gates are fully exercised either way and a nonzero exit means a
// contract broke (a bug, never noise).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "thermal/note9_model.hpp"
#include "thermal/rc_batch.hpp"

namespace {

using namespace nextgov;
using nextgov::bench::wall_seconds;

/// Deterministic, session-divergent power schedule: a triangle wave with
/// per-session period plus periodic bursts. Deliberately cheap (no
/// transcendentals) so the timed loops measure the thermal solve, not the
/// schedule.
double schedule_power(std::size_t s, std::size_t node, std::int64_t t) {
  const std::int64_t period = 2000 + 61 * static_cast<std::int64_t>(s % 16);
  const std::int64_t phase = t % period;
  const double tri =
      std::abs(static_cast<double>(2 * phase - period)) / static_cast<double>(period);
  const double base = 0.4 + 0.3 * static_cast<double>(node);
  const double burst = (t + static_cast<std::int64_t>(97 * s)) % 4000 < 800 ? 1.5 : 0.0;
  return base + 1.2 * tri + burst;
}

/// Power inputs change at DVFS-decision cadence (tens of ms), not every
/// 1 ms thermal tick; re-scheduling every tick would make the benchmark
/// measure the schedule instead of the solve.
constexpr std::int64_t kPowerUpdatePeriod = 16;

struct ThermalTiming {
  double serial_s{0.0};
  double batch_s{0.0};
  double speedup{0.0};
  double serial_steps_per_sec{0.0};  ///< session-steps per wall second
  double batch_steps_per_sec{0.0};
  bool bit_identical{false};
};

/// Times `sessions` Note 9 networks advanced `ticks` 1 ms steps serially
/// vs through one RcBatch, then re-runs both paths from a fresh state and
/// compares every node temperature bitwise.
ThermalTiming time_thermal(std::size_t sessions, std::int64_t ticks) {
  const auto& topo = thermal::note9_topology();
  const std::size_t n = topo->node_count();
  const SimTime dt = SimTime::from_ms(1);
  const auto ambient = [](std::size_t s) {
    return Celsius{15.0 + 2.5 * static_cast<double>(s % 9)};
  };

  const auto run_serial = [&](std::vector<thermal::RcNetwork>& nets, std::int64_t t0,
                              std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const bool reschedule = t % kPowerUpdatePeriod == 0;
      for (std::size_t s = 0; s < sessions; ++s) {
        if (reschedule) {
          for (std::size_t i = 0; i < n; ++i) {
            nets[s].set_power(i, Watts{schedule_power(s, i, t)});
          }
        }
        nets[s].step(dt);
      }
    }
  };
  const auto run_batch = [&](thermal::RcBatch& batch, std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      if (t % kPowerUpdatePeriod == 0) {
        for (std::size_t s = 0; s < sessions; ++s) {
          for (std::size_t i = 0; i < n; ++i) {
            batch.set_power(s, i, Watts{schedule_power(s, i, t)});
          }
        }
      }
      batch.step(dt);
    }
  };
  const auto make_nets = [&] {
    std::vector<thermal::RcNetwork> nets;
    nets.reserve(sessions);
    for (std::size_t s = 0; s < sessions; ++s) nets.emplace_back(topo, ambient(s));
    return nets;
  };
  const auto make_batch = [&] {
    thermal::RcBatch batch{topo, sessions};
    for (std::size_t s = 0; s < sessions; ++s) {
      batch.set_all_temperatures(s, ambient(s));
      batch.set_ambient(s, ambient(s));
    }
    return batch;
  };

  ThermalTiming timing;
  {
    // Timed runs (short warmup so both paths start with built caches).
    auto nets = make_nets();
    run_serial(nets, 0, 1000);
    timing.serial_s = wall_seconds([&] { run_serial(nets, 1000, 1000 + ticks); });
    auto batch = make_batch();
    run_batch(batch, 0, 1000);
    timing.batch_s = wall_seconds([&] { run_batch(batch, 1000, 1000 + ticks); });
  }
  const double session_steps = static_cast<double>(sessions) * static_cast<double>(ticks);
  timing.serial_steps_per_sec = session_steps / timing.serial_s;
  timing.batch_steps_per_sec = session_steps / timing.batch_s;
  timing.speedup = timing.serial_s / timing.batch_s;

  // Bit-identity gate, from fresh state over a shorter horizon.
  auto nets = make_nets();
  auto batch = make_batch();
  const std::int64_t check_ticks = std::min<std::int64_t>(ticks, 5000);
  run_serial(nets, 0, check_ticks);
  run_batch(batch, 0, check_ticks);
  timing.bit_identical = true;
  for (std::size_t s = 0; s < sessions; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      if (batch.temperature(s, i).value() != nets[s].temperature(i).value()) {
        timing.bit_identical = false;
        std::fprintf(stderr, "  BIT-IDENTITY BROKEN: session %zu node %zu %.17g != %.17g\n",
                     s, i, batch.temperature(s, i).value(), nets[s].temperature(i).value());
      }
    }
  }
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nextgov::bench;

  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  print_header("perf", smoke ? "SoA thermal batch stepping (smoke mode)"
                             : "SoA thermal batch stepping vs per-session stepping");

  // --- thermal-layer batch vs serial ------------------------------------
  const std::int64_t ticks = smoke ? 20000 : 200000;
  const std::size_t session_counts[] = {4, 16, 64};
  std::vector<ThermalTiming> timings;
  bool all_identical = true;
  for (const std::size_t sessions : session_counts) {
    const ThermalTiming t = time_thermal(sessions, ticks);
    std::printf("  %3zu sessions: serial %7.2fM steps/s, batch %7.2fM steps/s -> %.2fx, %s\n",
                sessions, t.serial_steps_per_sec / 1e6, t.batch_steps_per_sec / 1e6,
                t.speedup, t.bit_identical ? "bit-identical" : "RESULTS DIVERGED");
    all_identical = all_identical && t.bit_identical;
    timings.push_back(t);
  }

  // --- engine-level batched runner --------------------------------------
  // One worker on both sides: this isolates the batch-resident stepping
  // gain from pool parallelism (perf_throughput already tracks the pool).
  const std::size_t engine_sessions = smoke ? 8 : 16;
  const double engine_sim_s = smoke ? 20.0 : 60.0;
  sim::RunPlan plan;
  for (std::size_t i = 0; i < engine_sessions; ++i) {
    sim::ExperimentConfig cfg;
    cfg.duration = SimTime::from_seconds(engine_sim_s);
    cfg.governor = (i % 2 == 0) ? sim::GovernorKind::kSchedutil : sim::GovernorKind::kNext;
    cfg.seed = sim::derive_seed(1234, i);
    plan.add(i % 2 == 0 ? workload::AppId::kLineage : workload::AppId::kFacebook, cfg);
  }

  // Headline ratio: both sides uninstrumented (the per-phase passes below
  // carry per-tick clock reads whose overhead differs between the two
  // paths, so they must not feed the gated number).
  std::vector<sim::SessionResult> serial_results;
  const double plan_serial_s = wall_seconds(
      [&] { serial_results = sim::execute(plan, {.workers = 1, .max_batch = 1}); });
  std::vector<sim::SessionResult> batched_results;
  const double plan_batched_s = wall_seconds([&] {
    batched_results = sim::execute(plan, {.workers = 1, .max_batch = engine_sessions});
  });
  bool engine_identical = serial_results.size() == batched_results.size();
  for (std::size_t i = 0; engine_identical && i < serial_results.size(); ++i) {
    engine_identical = sim::bit_identical(serial_results[i], batched_results[i]);
  }
  const double engine_speedup = plan_batched_s > 0.0 ? plan_serial_s / plan_batched_s : 0.0;
  std::printf("  engine: %zu sessions x %.0fs, per-session %.2fs, batched %.2fs -> %.2fx, %s\n",
              engine_sessions, engine_sim_s, plan_serial_s, plan_batched_s, engine_speedup,
              engine_identical ? "bit-identical" : "RESULTS DIVERGED");

  // Phase attribution, separately instrumented on both sides. Serial side:
  // the engines' own phase methods - they compose to exactly Engine::step()
  // (engine.hpp contract) - timed per phase; batched side: the runner's
  // phase_timings hook. Per-phase *ratios* are comparable; the absolute
  // sums run slightly above the headline walls because of the clock reads.
  sim::BatchPhaseTimings serial_phases;
  {
    using Clock = std::chrono::steady_clock;
    std::size_t session_index = 0;
    for (const sim::SessionSpec& spec : plan.sessions()) {
      auto engine = sim::make_engine(spec.app_factory, spec.config);
      const SimTime dt = engine->config().step;
      const std::int64_t ticks = (spec.config.duration.us() + dt.us() - 1) / dt.us();
      Clock::time_point mark;
      const auto lap = [&](double sim::BatchPhaseTimings::* phase) {
        const Clock::time_point now = Clock::now();
        serial_phases.*phase += std::chrono::duration<double>(now - mark).count();
        mark = now;
      };
      for (std::int64_t t = 0; t < ticks; ++t) {
        mark = Clock::now();
        engine->step_pre_power();
        lap(&sim::BatchPhaseTimings::pre_s);
        engine->apply_power_model();
        lap(&sim::BatchPhaseTimings::power_s);
        engine->thermal().step(dt);
        lap(&sim::BatchPhaseTimings::thermal_s);
        engine->step_post_observe();
        lap(&sim::BatchPhaseTimings::observe_s);
        engine->step_post_meta();
        engine->step_post_finish();
        lap(&sim::BatchPhaseTimings::post_s);
      }
      serial_phases.ticks += ticks;
      // The phase decomposition must not drift from step(): gate it into
      // the same bit-identity check as the runners.
      engine_identical =
          engine_identical &&
          sim::bit_identical(
              sim::summarize(*engine, spec.name, std::string{to_string(spec.config.governor)}),
              serial_results[session_index]);
      ++session_index;
    }
  }
  sim::BatchPhaseTimings batch_phases;
  (void)sim::execute(
      plan, {.workers = 1, .max_batch = engine_sessions, .phase_timings = &batch_phases});

  struct PhaseRow {
    const char* name;
    double serial_s;
    double batch_s;
  };
  const PhaseRow phase_rows[] = {
      {"pre", serial_phases.pre_s, batch_phases.pre_s},
      {"power", serial_phases.power_s, batch_phases.power_s},
      {"thermal", serial_phases.thermal_s, batch_phases.thermal_s},
      {"observe", serial_phases.observe_s, batch_phases.observe_s},
      {"post", serial_phases.post_s, batch_phases.post_s},
      {"scatter", serial_phases.scatter_s, batch_phases.scatter_s},
  };
  for (const PhaseRow& row : phase_rows) {
    const double ratio = row.batch_s > 0.0 ? row.serial_s / row.batch_s : 0.0;
    std::printf("    phase %-8s serial %7.3fs  batched %7.3fs  ratio %5.2fx\n", row.name,
                row.serial_s, row.batch_s, ratio);
  }

  // Regression gate: on hosts with enough cores for timing to mean
  // anything, a full-size batched run slower than per-session stepping is
  // a regression of the whole point of the batch-resident pipeline.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const bool gate_applicable = !smoke && engine_sessions >= 16 && hw >= 4;
  const bool gate_ok = !gate_applicable || engine_speedup >= 1.0;
  if (gate_applicable) {
    std::printf("  ratio gate (>= 1.0x at %zu sessions): %s (%.2fx)\n", engine_sessions,
                gate_ok ? "ok" : "FAILED", engine_speedup);
  } else {
    std::printf("  ratio gate: skipped (%s)\n",
                smoke ? "smoke mode" : (engine_sessions < 16 ? "< 16 sessions" : "< 4 cores"));
  }

  // --- JSON trajectory file ---------------------------------------------
  const std::string path = out_dir() + "/BENCH_thermal_batch.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"perf_thermal_batch\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"hardware_threads\": %u,\n",
               std::max(1u, std::thread::hardware_concurrency()));
  std::fprintf(out, "  \"thermal\": {\n");
  std::fprintf(out, "    \"ticks\": %lld,\n", static_cast<long long>(ticks));
  std::fprintf(out, "    \"sweeps\": [\n");
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const ThermalTiming& t = timings[i];
    std::fprintf(out,
                 "      {\"sessions\": %zu, \"serial_steps_per_sec\": %.0f, "
                 "\"batch_steps_per_sec\": %.0f, \"speedup\": %.3f, "
                 "\"bit_identical\": %s}%s\n",
                 session_counts[i], t.serial_steps_per_sec, t.batch_steps_per_sec, t.speedup,
                 t.bit_identical ? "true" : "false", i + 1 < timings.size() ? "," : "");
  }
  std::fprintf(out, "    ]\n");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"engine\": {\n");
  std::fprintf(out, "    \"sessions\": %zu,\n", engine_sessions);
  std::fprintf(out, "    \"sim_seconds_each\": %.0f,\n", engine_sim_s);
  std::fprintf(out, "    \"per_session_wall_s\": %.4f,\n", plan_serial_s);
  std::fprintf(out, "    \"batched_wall_s\": %.4f,\n", plan_batched_s);
  std::fprintf(out, "    \"speedup\": %.3f,\n", engine_speedup);
  std::fprintf(out, "    \"bit_identical\": %s,\n", engine_identical ? "true" : "false");
  std::fprintf(out, "    \"phases\": {\n");
  for (std::size_t i = 0; i < std::size(phase_rows); ++i) {
    const PhaseRow& row = phase_rows[i];
    const double ratio = row.batch_s > 0.0 ? row.serial_s / row.batch_s : 0.0;
    std::fprintf(out,
                 "      \"%s\": {\"serial_s\": %.4f, \"batched_s\": %.4f, \"ratio\": %.3f}%s\n",
                 row.name, row.serial_s, row.batch_s, ratio,
                 i + 1 < std::size(phase_rows) ? "," : "");
  }
  std::fprintf(out, "    },\n");
  if (gate_applicable) {
    std::fprintf(out, "    \"ratio_gate\": \"%s\"\n", gate_ok ? "ok" : "failed");
  } else {
    std::fprintf(out, "    \"ratio_gate\": \"skipped: %s\"\n",
                 smoke ? "smoke mode" : (engine_sessions < 16 ? "< 16 sessions" : "< 4 cores"));
  }
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("  -> %s\n\n", path.c_str());
  return all_identical && engine_identical && gate_ok ? 0 : 1;
}
