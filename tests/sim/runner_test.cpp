// Tests for the one execution entry point, sim::execute(): plan
// construction, seed derivation, and the core determinism contract - every
// ExecOptions value (worker count, batch width, process count) yields
// results bit-identical to serial per-session execution in plan order,
// checked on hand-picked plans and on seeded random ones.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/runner.hpp"

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
  plan.add_grid(apps, governors, seeds, base);
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

/// The training determinism comparator: every field the contract covers
/// (wall_seconds is host time by definition) and the learned table down
/// to each Q-value's bits.
void expect_training_identical(const TrainingResult& a, const TrainingResult& b) {
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.final_mean_reward, b.final_mean_reward);
  EXPECT_EQ(a.states_visited, b.states_visited);
  ASSERT_EQ(a.table.state_count(), b.table.state_count());
  EXPECT_EQ(a.table.total_visits(), b.table.total_visits());
  a.table.for_each_entry([&](const rl::QTable::EntryView& ea) {
    ASSERT_TRUE(b.table.contains(ea.key())) << "state " << ea.key();
    EXPECT_EQ(ea.visits(), b.table.visits(ea.key()));
    EXPECT_EQ(ea.tried(), b.table.tried_mask(ea.key()));
    for (std::size_t q = 0; q < a.table.action_count(); ++q) {
      EXPECT_EQ(ea.q(q), b.table.q(ea.key(), q)) << "state " << ea.key() << " action " << q;
    }
  });
}

TEST(RunPlan, GridBuildsCrossProductInOrder) {
  const RunPlan plan = small_grid();
  ASSERT_EQ(plan.size(), 12u);
  // Order: apps outermost, then governors, then seeds.
  EXPECT_EQ(plan.sessions()[0].name, "facebook");
  EXPECT_EQ(plan.sessions()[0].config.seed, 1u);
  EXPECT_EQ(plan.sessions()[1].config.seed, 2u);
  EXPECT_EQ(plan.sessions()[6].name, "lineage");
  EXPECT_EQ(static_cast<int>(plan.sessions()[2].config.governor),
            static_cast<int>(GovernorKind::kOndemand));
}

TEST(RunPlan, AddRejectsNullFactory) {
  RunPlan plan;
  EXPECT_THROW(plan.add(AppFactory{}, "broken", ExperimentConfig{}), ConfigError);
}

TEST(Runner, ParallelIsBitIdenticalToSerial) {
  const RunPlan plan = small_grid();
  const auto serial = execute(plan, {.workers = 1, .max_batch = 1});
  const auto parallel = execute(plan, {.workers = 4, .max_batch = 1});
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
  const auto first = execute(plan, {.workers = 2, .max_batch = 1});
  const auto second = execute(plan, {.workers = 3, .max_batch = 1});
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE(i);
    expect_bit_identical(first[i], second[i]);
  }
}

TEST(Runner, EmptyPlanReturnsEmpty) {
  EXPECT_TRUE(execute(RunPlan{}, {.max_batch = 1}).empty());
}

TEST(Runner, PropagatesSessionFailure) {
  RunPlan plan;
  ExperimentConfig ok;
  ok.duration = SimTime::from_seconds(1.0);
  plan.add(workload::AppId::kHome, ok);
  plan.add([](std::uint64_t) -> std::unique_ptr<workload::App> {
    throw ConfigError("boom");
  }, "broken", ok);
  EXPECT_THROW((void)execute(plan, {.workers = 2, .max_batch = 1}), ConfigError);
}

TEST(BatchRunner, BatchedPlanIsBitIdenticalToRunPlan) {
  // Mixed governors/apps/seeds AND mixed durations: the duration split
  // produces several lock-step groups plus batching/fallback boundaries,
  // all of which must reproduce the per-session path exactly.
  RunPlan plan = small_grid();
  ExperimentConfig odd;
  odd.duration = SimTime::from_seconds(3.0);
  odd.governor = GovernorKind::kNext;
  odd.seed = 77;
  plan.add(workload::AppId::kPubg, odd);
  const auto reference = execute(plan, {.workers = 1, .max_batch = 1});
  for (const std::size_t max_batch : {std::size_t{0}, std::size_t{1}, std::size_t{5}}) {
    SCOPED_TRACE(max_batch);
    const auto batched = execute(plan, {.workers = 3, .max_batch = max_batch});
    ASSERT_EQ(batched.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      SCOPED_TRACE(i);
      expect_bit_identical(reference[i], batched[i]);
    }
  }
}

TEST(BatchRunner, BatchedTrainingIsBitIdenticalToTrainingPlan) {
  TrainingPlan plan;
  TrainingOptions base;
  base.max_duration = SimTime::from_seconds(20.0);
  base.episode_length = SimTime::from_seconds(8.0);
  plan.add_seed_sweep(workload::AppId::kFacebook, core::NextConfig{}, base, 3, 5);
  // A heterogeneous straggler (different budget) and an early-stopping
  // cell: both must route through the per-cell fallback inside the same
  // batched call.
  TrainingOptions longer = base;
  longer.max_duration = SimTime::from_seconds(12.0);
  plan.add(workload::AppId::kLineage, core::NextConfig{}, longer);
  TrainingOptions stopper = base;
  stopper.stop_at_convergence = true;
  plan.add(workload::AppId::kFacebook, core::NextConfig{}, stopper);

  const auto reference = execute(plan, {.workers = 1, .max_batch = 1});
  // Explicit max_batch forces the lock-step trainer for the homogeneous
  // cells (auto sizing would degenerate shares this small to the
  // per-cell path).
  const auto batched = execute(plan, {.workers = 2, .max_batch = 8});
  ASSERT_EQ(batched.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    SCOPED_TRACE(i);
    expect_training_identical(reference[i], batched[i]);
  }
}

TEST(BatchRunner, EmptyPlansReturnEmpty) {
  EXPECT_TRUE(execute(RunPlan{}).empty());
  EXPECT_TRUE(execute(TrainingPlan{}).empty());
}

TEST(Execute, PhaseTimingsRequireOneProcess) {
  // A forked worker cannot write the parent's phase sink, so asking for
  // both is a configuration error rather than silently empty timings.
  RunPlan plan;
  ExperimentConfig config;
  config.duration = SimTime::from_seconds(1.0);
  plan.add(workload::AppId::kHome, config);
  plan.add(workload::AppId::kHome, config);
  BatchPhaseTimings timings;
  EXPECT_THROW((void)execute(plan, {.phase_timings = &timings, .processes = 2}), ConfigError);
  EXPECT_THROW((void)execute(TrainingPlan{}, {.phase_timings = &timings, .processes = 0}),
               ConfigError);
  EXPECT_EQ(execute(plan, {.workers = 1, .max_batch = 2, .phase_timings = &timings}).size(),
            2u);
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

/// Seeded random evaluation plan: catalog apps under all six governors,
/// whole-second 2-5 s sessions (so equal durations form lock-step groups
/// next to singletons), ambients in [15, 35) C and 60/90/120 Hz panels;
/// Next cells either deploy untrained or learn online.
RunPlan random_run_plan(std::uint64_t seed) {
  Rng rng{seed};
  const auto apps = workload::all_apps();
  RunPlan plan;
  const std::int64_t sessions = rng.uniform_int(6, 10);
  for (std::int64_t i = 0; i < sessions; ++i) {
    ExperimentConfig config;
    config.governor = pick(rng, kEveryGovernor);
    config.duration = SimTime::from_seconds(static_cast<double>(rng.uniform_int(2, 5)));
    config.seed = rng.next_u64();
    config.ambient = Celsius{rng.uniform(15.0, 35.0)};
    config.refresh_hz = pick(rng, kRefreshRates);
    config.next_config.ppdw_bounds.fps_max = config.refresh_hz;
    if (rng.bernoulli(0.5)) config.next_mode = core::AgentMode::kTraining;
    plan.add(apps[static_cast<std::size_t>(
                 rng.uniform_int(0, static_cast<std::int64_t>(apps.size()) - 1))],
             config);
  }
  return plan;
}

/// Seeded random training plan: two budgets x two episode lengths (so
/// some cells share a lock-step clock and some don't), random ambients and
/// panels, and roughly one early-stopping cell in four.
TrainingPlan random_training_plan(std::uint64_t seed) {
  Rng rng{seed};
  const auto apps = workload::all_apps();
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
    plan.add(apps[static_cast<std::size_t>(
                 rng.uniform_int(0, static_cast<std::int64_t>(apps.size()) - 1))],
             config, options);
  }
  return plan;
}

/// Every (workers, max_batch, processes) point of the differential grid;
/// {1, 1, 1} - serial, per-session, in-process - is the reference.
std::vector<ExecOptions> every_path() {
  std::vector<ExecOptions> paths;
  for (const std::size_t workers : {1, 3}) {
    for (const std::size_t max_batch : {0, 1, 4}) {
      for (const std::size_t processes : {1, 2}) {
        paths.push_back({.workers = workers, .max_batch = max_batch, .processes = processes});
      }
    }
  }
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
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    const RunPlan plan = random_run_plan(derive_seed(0xE8EC, seed));
    const auto reference = execute(plan, {.workers = 1, .max_batch = 1});
    ASSERT_EQ(reference.size(), plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      expect_well_formed(reference[i], plan.sessions()[i].config.refresh_hz);
    }
    for (const ExecOptions& path : paths) {
      SCOPED_TRACE(testing::Message() << "workers " << path.workers << " max_batch "
                                      << path.max_batch << " processes " << path.processes);
      const auto results = execute(plan, path);
      ASSERT_EQ(results.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_TRUE(bit_identical(reference[i], results[i])) << "session " << i;
      }
    }
  }
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    SCOPED_TRACE(seed);
    const TrainingPlan plan = random_training_plan(derive_seed(0x7EA1, seed));
    const auto reference = execute(plan, {.workers = 1, .max_batch = 1});
    ASSERT_EQ(reference.size(), plan.size());
    for (const ExecOptions& path : paths) {
      SCOPED_TRACE(testing::Message() << "workers " << path.workers << " max_batch "
                                      << path.max_batch << " processes " << path.processes);
      const auto results = execute(plan, path);
      ASSERT_EQ(results.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        SCOPED_TRACE(i);
        expect_training_identical(reference[i], results[i]);
      }
    }
  }
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
