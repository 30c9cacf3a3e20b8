// Tests for the one execution entry point, sim::execute(): plan
// construction, seed derivation, and the core determinism contract - every
// ExecOptions value (worker count, phase timings) yields results
// bit-identical to serial per-session execution in plan order, checked on
// hand-picked plans and on seeded random ones (catalog apps and random
// scenarios). The "BatchRunner" tests and "PhaseTimingsRequireOneProcess"
// predate per-session stepping as the only path (plans once also ran in
// lock-step batches and across forked worker processes); the names are
// kept so test history stays traceable.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "training_compare.hpp"

namespace nextgov::sim {
namespace {

RunPlan small_grid() {
  // 2 apps x 3 governors x 2 seeds = 12 sessions, kept short so the suite
  // stays fast while still crossing governor/record/throttle boundaries.
  const workload::AppId apps[] = {workload::AppId::kFacebook, workload::AppId::kLineage};
  const GovernorKind governors[] = {GovernorKind::kSchedutil, GovernorKind::kOndemand,
                                    GovernorKind::kNext};
  const std::uint64_t seeds[] = {1, 2};
  ExperimentConfig base;
  base.duration = SimTime::from_seconds(5.0);
  RunPlan plan;
  for (const workload::AppId app : apps) {
    for (const GovernorKind governor : governors) {
      for (const std::uint64_t seed : seeds) {
        ExperimentConfig config = base;
        config.governor = governor;
        config.seed = seed;
        plan.add(app, config);
      }
    }
  }
  return plan;
}

void expect_bit_identical(const SessionResult& a, const SessionResult& b) {
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.governor, b.governor);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.avg_power_w, b.avg_power_w);
  EXPECT_EQ(a.peak_power_w, b.peak_power_w);
  EXPECT_EQ(a.avg_temp_big_c, b.avg_temp_big_c);
  EXPECT_EQ(a.peak_temp_big_c, b.peak_temp_big_c);
  EXPECT_EQ(a.avg_temp_device_c, b.avg_temp_device_c);
  EXPECT_EQ(a.peak_temp_device_c, b.peak_temp_device_c);
  EXPECT_EQ(a.avg_fps, b.avg_fps);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.frames_presented, b.frames_presented);
  EXPECT_EQ(a.frames_dropped, b.frames_dropped);
  EXPECT_EQ(a.avg_ppdw, b.avg_ppdw);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    // Sample is all doubles, so memcmp equality is exactly bitwise
    // equality across every recorded field.
    EXPECT_EQ(std::memcmp(&a.series[i], &b.series[i], sizeof(Sample)), 0) << "sample " << i;
  }
}

TEST(RunPlan, AddRejectsNullFactory) {
  RunPlan plan;
  EXPECT_THROW(plan.add(AppFactory{}, "broken", ExperimentConfig{}), ConfigError);
}

TEST(Runner, ParallelIsBitIdenticalToSerial) {
  const RunPlan plan = small_grid();
  const auto serial = execute(plan, {.workers = 1});
  const auto parallel = execute(plan, {.workers = 4});
  ASSERT_EQ(serial.size(), plan.size());
  ASSERT_EQ(parallel.size(), plan.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_bit_identical(serial[i], parallel[i]);
  }
}

TEST(Runner, RepeatedParallelRunsAreIdentical) {
  RunPlan plan;
  ExperimentConfig base;
  base.duration = SimTime::from_seconds(3.0);
  base.governor = GovernorKind::kNext;  // exercises the RL stack's RNG
  base.seed = 11;
  plan.add(workload::AppId::kPubg, base);
  base.seed = 12;
  plan.add(workload::AppId::kPubg, base);
  const auto first = execute(plan, {.workers = 2});
  const auto second = execute(plan, {.workers = 3});
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE(i);
    expect_bit_identical(first[i], second[i]);
  }
}

TEST(Runner, EmptyPlanReturnsEmpty) {
  EXPECT_TRUE(execute(RunPlan{}, {}).empty());
}

TEST(Runner, PropagatesSessionFailure) {
  RunPlan plan;
  ExperimentConfig ok;
  ok.duration = SimTime::from_seconds(1.0);
  plan.add(workload::AppId::kHome, ok);
  plan.add([](std::uint64_t) -> std::unique_ptr<workload::App> {
    throw ConfigError("boom");
  }, "broken", ok);
  EXPECT_THROW((void)execute(plan, {.workers = 2}), ConfigError);
}

TEST(BatchRunner, BatchedPlanIsBitIdenticalToRunPlan) {
  // Mixed governors/apps/seeds AND mixed durations, on several pool
  // sizes: every one must reproduce the serial path exactly.
  RunPlan plan = small_grid();
  ExperimentConfig odd;
  odd.duration = SimTime::from_seconds(3.0);
  odd.governor = GovernorKind::kNext;
  odd.seed = 77;
  plan.add(workload::AppId::kPubg, odd);
  const auto reference = execute(plan, {.workers = 1});
  for (const std::size_t workers : {std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE(workers);
    const auto pooled = execute(plan, {.workers = workers});
    ASSERT_EQ(pooled.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      SCOPED_TRACE(i);
      expect_bit_identical(reference[i], pooled[i]);
    }
  }
}

TEST(BatchRunner, BatchedTrainingIsBitIdenticalToTrainingPlan) {
  TrainingPlan plan;
  TrainingOptions base;
  base.max_duration = SimTime::from_seconds(20.0);
  base.episode_length = SimTime::from_seconds(8.0);
  for (std::uint64_t i = 0; i < 3; ++i) {
    TrainingOptions cell = base;
    cell.seed = derive_seed(5, i);
    plan.add(workload::AppId::kFacebook, core::NextConfig{}, cell);
  }
  // A heterogeneous straggler (different budget) and an early-stopping
  // cell next to the homogeneous sweep.
  TrainingOptions longer = base;
  longer.max_duration = SimTime::from_seconds(12.0);
  plan.add(workload::AppId::kLineage, core::NextConfig{}, longer);
  TrainingOptions stopper = base;
  stopper.stop_at_convergence = true;
  plan.add(workload::AppId::kFacebook, core::NextConfig{}, stopper);

  const auto reference = execute(plan, {.workers = 1});
  const auto pooled = execute(plan, {.workers = 2});
  ASSERT_EQ(pooled.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    SCOPED_TRACE(i);
    expect_training_identical(reference[i], pooled[i]);
  }
}

TEST(BatchRunner, EmptyPlansReturnEmpty) {
  EXPECT_TRUE(execute(RunPlan{}).empty());
  EXPECT_TRUE(execute(TrainingPlan{}).empty());
}

TEST(Execute, PhaseTimingsRequireOneProcess) {
  // A run with a phase sink accumulates its ticks there.
  RunPlan plan;
  ExperimentConfig config;
  config.duration = SimTime::from_seconds(1.0);
  plan.add(workload::AppId::kHome, config);
  plan.add(workload::AppId::kHome, config);
  BatchPhaseTimings timings;
  EXPECT_EQ(execute(plan, {.workers = 1, .phase_timings = &timings}).size(), 2u);
  EXPECT_GT(timings.ticks, 0);
}

// --- randomized differential test over every execution path ---------------

constexpr GovernorKind kEveryGovernor[] = {
    GovernorKind::kSchedutil, GovernorKind::kPerformance, GovernorKind::kPowersave,
    GovernorKind::kOndemand,  GovernorKind::kIntQos,      GovernorKind::kNext};
constexpr double kRefreshRates[] = {60.0, 90.0, 120.0};

template <typename T, std::size_t N>
const T& pick(Rng& rng, const T (&options)[N]) {
  return options[static_cast<std::size_t>(rng.uniform_int(0, N - 1))];
}

workload::AppId random_app(Rng& rng) {
  const auto apps = workload::all_apps();
  return apps[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(apps.size()) - 1))];
}

/// Seeded random scenario: 1-3 segments of 1-2 s catalog apps (so a
/// 2-5 s session crosses app switches), and with even odds each a periodic
/// background burst and a user-model override.
ScenarioSpec random_scenario(Rng& rng) {
  ScenarioSpec spec;
  spec.name = "random_scenario";
  const std::int64_t segments = rng.uniform_int(1, 3);
  for (std::int64_t i = 0; i < segments; ++i) {
    spec.segments.push_back(
        {random_app(rng), SimTime::from_seconds(static_cast<double>(rng.uniform_int(1, 2)))});
  }
  if (rng.bernoulli(0.5)) {
    spec.burst.enabled = true;
    spec.burst.period = SimTime::from_ms(rng.uniform_int(500, 2000));
    spec.burst.burst_length = SimTime::from_ms(rng.uniform_int(100, 500));
    spec.burst.boost = {.big_avg = rng.uniform(0.0, 0.6), .big_hot = rng.uniform(0.0, 1.0),
                        .little_avg = rng.uniform(0.0, 0.6),
                        .little_hot = rng.uniform(0.0, 1.0), .gpu_avg = rng.uniform(0.0, 0.3)};
  }
  if (rng.bernoulli(0.5)) {
    workload::UserModelParams user;
    user.engaged_mean_s = rng.uniform(0.5, 8.0);
    user.engaged_sigma = rng.uniform(0.2, 1.0);
    user.passive_mean_s = rng.uniform(0.5, 30.0);
    user.passive_sigma = rng.uniform(0.2, 1.0);
    user.start_engaged = rng.bernoulli(0.5);
    spec.user_override = user;
  }
  return spec;
}

/// Seeded random evaluation plan under all six governors: whole-second
/// 2-5 s sessions, ambients in [15, 35) C and 60/90/120 Hz panels; Next cells
/// either deploy untrained or learn online. About half the sessions run a
/// catalog app, the rest a random scenario (random_scenario()) added
/// through its app_factory() and experiment_config().
RunPlan random_run_plan(std::uint64_t seed) {
  Rng rng{seed};
  RunPlan plan;
  const std::int64_t sessions = rng.uniform_int(6, 10);
  for (std::int64_t i = 0; i < sessions; ++i) {
    const GovernorKind governor = pick(rng, kEveryGovernor);
    const SimTime duration = SimTime::from_seconds(static_cast<double>(rng.uniform_int(2, 5)));
    const std::uint64_t session_seed = rng.next_u64();
    const Celsius ambient{rng.uniform(15.0, 35.0)};
    const double refresh_hz = pick(rng, kRefreshRates);
    const bool training = rng.bernoulli(0.5);
    const auto with_mode = [&](ExperimentConfig config) {
      if (training) config.next_mode = core::AgentMode::kTraining;
      return config;
    };
    if (rng.bernoulli(0.5)) {
      ExperimentConfig config;
      config.governor = governor;
      config.duration = duration;
      config.seed = session_seed;
      config.ambient = ambient;
      config.refresh_hz = refresh_hz;
      config.next_config.ppdw_bounds.fps_max = refresh_hz;
      plan.add(random_app(rng), with_mode(config));
    } else {
      ScenarioSpec spec = random_scenario(rng);
      spec.duration = duration;
      spec.ambient = ambient;
      spec.refresh_hz = refresh_hz;
      plan.add(spec.app_factory(), spec.name,
               with_mode(spec.experiment_config(governor, session_seed)));
    }
  }
  return plan;
}

/// Seeded random training plan: two budgets x two episode lengths, random
/// ambients and panels, and roughly one early-stopping cell in four.
TrainingPlan random_training_plan(std::uint64_t seed) {
  Rng rng{seed};
  constexpr double kBudgets[] = {6.0, 10.0};
  constexpr double kEpisodes[] = {3.0, 5.0};
  TrainingPlan plan;
  const std::int64_t cells = rng.uniform_int(5, 8);
  for (std::int64_t i = 0; i < cells; ++i) {
    TrainingOptions options;
    options.max_duration = SimTime::from_seconds(pick(rng, kBudgets));
    options.episode_length = SimTime::from_seconds(pick(rng, kEpisodes));
    options.seed = rng.next_u64();
    options.ambient = Celsius{rng.uniform(15.0, 35.0)};
    options.refresh_hz = pick(rng, kRefreshRates);
    options.stop_at_convergence = rng.bernoulli(0.25);
    core::NextConfig config;
    config.ppdw_bounds.fps_max = options.refresh_hz;
    plan.add(random_app(rng), config, options);
  }
  return plan;
}

/// Every pool size of the differential grid; workers = 1 - serial - is
/// the reference.
std::vector<ExecOptions> every_path() {
  std::vector<ExecOptions> paths;
  for (const std::size_t workers : {2, 3}) paths.push_back({.workers = workers});
  return paths;
}

void expect_well_formed(const SessionResult& r, double refresh_hz) {
  EXPECT_LE(r.avg_fps, refresh_hz);
  EXPECT_GT(r.energy_j, 0.0);
  for (const double v : {r.duration_s, r.avg_power_w, r.peak_power_w, r.avg_temp_big_c,
                         r.peak_temp_big_c, r.avg_temp_device_c, r.peak_temp_device_c,
                         r.avg_fps, r.energy_j, r.avg_ppdw}) {
    EXPECT_TRUE(std::isfinite(v));
  }
  for (const Sample& s : r.series) {
    for (const double v : {s.time_s, s.fps, s.target_fps, s.f_big_mhz, s.f_little_mhz,
                           s.f_gpu_mhz, s.cap_big_mhz, s.cap_little_mhz, s.cap_gpu_mhz,
                           s.power_w, s.temp_big_c, s.temp_little_c, s.temp_gpu_c,
                           s.temp_device_c, s.temp_skin_c, s.ppdw}) {
      EXPECT_TRUE(std::isfinite(v)) << "sample at " << s.time_s << " s";
    }
  }
}

TEST(Execute, RandomPlansAgreeAcrossEveryPath) {
  const std::vector<ExecOptions> paths = every_path();
  std::size_t catalog_sessions = 0;
  std::size_t scenario_sessions = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    const RunPlan plan = random_run_plan(derive_seed(0xE8EC, seed));
    const auto reference = execute(plan, {.workers = 1});
    ASSERT_EQ(reference.size(), plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      expect_well_formed(reference[i], plan.sessions()[i].config.refresh_hz);
      if (plan.sessions()[i].name == "random_scenario") {
        ++scenario_sessions;
      } else {
        ++catalog_sessions;
      }
    }
    for (const ExecOptions& path : paths) {
      SCOPED_TRACE(testing::Message() << "workers " << path.workers);
      const auto results = execute(plan, path);
      ASSERT_EQ(results.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_TRUE(bit_identical(reference[i], results[i])) << "session " << i;
      }
    }
  }
  // The seeds draw both kinds of session, so both reach every path.
  EXPECT_GT(catalog_sessions, 0u);
  EXPECT_GT(scenario_sessions, 0u);
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    SCOPED_TRACE(seed);
    const TrainingPlan plan = random_training_plan(derive_seed(0x7EA1, seed));
    const auto reference = execute(plan, {.workers = 1});
    ASSERT_EQ(reference.size(), plan.size());
    for (const ExecOptions& path : paths) {
      SCOPED_TRACE(testing::Message() << "workers " << path.workers);
      const auto results = execute(plan, path);
      ASSERT_EQ(results.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        SCOPED_TRACE(i);
        expect_training_identical(reference[i], results[i]);
      }
    }
  }
}

TEST(Execute, PhaseTimingsLeaveResultsBitIdentical) {
  // The timed per-tick loop only reads the clock between step()'s phases:
  // a mixed run plan and a mixed training plan come out bit-identical to
  // untimed runs, and every session tick lands in the sink exactly once.
  const RunPlan plan = random_run_plan(derive_seed(0x71AE, 1));
  const auto reference = execute(plan, {.workers = 1});
  BatchPhaseTimings timings;
  const auto timed = execute(plan, {.workers = 3, .phase_timings = &timings});
  ASSERT_EQ(timed.size(), reference.size());
  std::int64_t session_ticks = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_TRUE(bit_identical(reference[i], timed[i])) << "session " << i;
    session_ticks += plan.sessions()[i].config.duration.us() / 1000;
  }
  EXPECT_EQ(timings.ticks, session_ticks);
  for (const double phase_s : {timings.pre_s, timings.power_s, timings.thermal_s,
                               timings.observe_s, timings.post_s}) {
    EXPECT_GT(phase_s, 0.0);
  }

  const TrainingPlan tplan = random_training_plan(derive_seed(0x71AE, 2));
  const auto treference = execute(tplan, {.workers = 1});
  BatchPhaseTimings ttimings;
  const auto ttimed = execute(tplan, {.workers = 3, .phase_timings = &ttimings});
  ASSERT_EQ(ttimed.size(), treference.size());
  std::int64_t cell_ticks = 0;
  for (std::size_t i = 0; i < treference.size(); ++i) {
    SCOPED_TRACE(i);
    expect_training_identical(treference[i], ttimed[i]);
    cell_ticks += std::llround(treference[i].sim_seconds * 1000.0);
  }
  EXPECT_EQ(ttimings.ticks, cell_ticks);
}

TEST(Runner, DeriveSeedIsDeterministicAndSpreads) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t s = derive_seed(42, i);
    EXPECT_EQ(s, derive_seed(42, i));
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 1000u);                    // no collisions
  EXPECT_NE(derive_seed(42, 0), derive_seed(43, 0));  // base matters
}

}  // namespace
}  // namespace nextgov::sim
