// Property tests for the scenario subsystem (sim/scenario.hpp): matrix
// expansion is deterministic and seed-stable, matrix execution through
// execute() is bit-identical across worker counts, and the library obeys
// the physical invariants the paper's operating envelope implies - higher
// ambient never lowers peak temperature, FPS never exceeds the panel's
// refresh rate, and a longer session never uses less energy.
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/scenario.hpp"
#include "workload/apps.hpp"

namespace nextgov::sim {
namespace {

/// The canonical small matrix used by the execution tests: 2 scenarios x
/// 3 ambients x 2 refresh rates x 1 seed = 12 cells, shortened so the
/// whole matrix stays test-sized.
ScenarioMatrix small_matrix() {
  ScenarioSpec fig1 = scenario("fig1_session");
  fig1.duration = SimTime::from_seconds(20.0);
  ScenarioSpec bursty = scenario("spotify_bursty");
  bursty.duration = SimTime::from_seconds(20.0);
  ScenarioMatrix matrix;
  matrix.add(std::move(fig1))
      .add(std::move(bursty))
      .ambients({15.0, 25.0, 35.0})
      .refresh_rates({60.0, 90.0});
  return matrix;
}

TEST(ScenarioLibrary, LookupKnownAndUnknownNames) {
  EXPECT_GE(scenario_names().size(), 9u);
  for (std::string_view name : scenario_names()) {
    const ScenarioSpec spec = scenario(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.segments.empty()) << name;
    EXPECT_GT(spec.effective_duration().seconds(), 0.0) << name;
  }
  EXPECT_THROW((void)scenario("definitely_not_a_scenario"), ConfigError);
}

TEST(ScenarioLibrary, CoversTheIssueMatrix) {
  // The curated axes the ROADMAP's scenario-breadth item names: 90/120 Hz
  // panels, 15-35 C ambients, and interleavings beyond the Fig. 1 session.
  EXPECT_DOUBLE_EQ(scenario("fig1_session_90hz").refresh_hz, 90.0);
  EXPECT_DOUBLE_EQ(scenario("fig1_session_120hz").refresh_hz, 120.0);
  EXPECT_DOUBLE_EQ(scenario("fig1_session_15c").ambient.value(), 15.0);
  EXPECT_DOUBLE_EQ(scenario("fig1_session_35c").ambient.value(), 35.0);
  EXPECT_GE(scenario("social_gaming").segments.size(), 3u);
  EXPECT_GE(scenario("commute_media").segments.size(), 3u);
  EXPECT_TRUE(scenario("spotify_bursty").burst.enabled);
  EXPECT_TRUE(scenario("binge_watch").user_override.has_value());
}

TEST(ScenarioSpecTest, SingleSegmentFactoryMatchesCatalogApp) {
  // app_scenario() must be a drop-in for the benches' hand-rolled
  // make_app() setups: same app, same seed, bit-identical session.
  const ScenarioSpec spec = app_scenario(workload::AppId::kFacebook);
  ExperimentConfig cfg = spec.experiment_config(GovernorKind::kSchedutil, 5);
  cfg.duration = SimTime::from_seconds(10.0);
  const SessionResult via_scenario = run_session(spec.app_factory(), "facebook", cfg);
  const SessionResult via_catalog = run_session(
      [](std::uint64_t seed) { return workload::make_app(workload::AppId::kFacebook, seed); },
      "facebook", cfg);
  EXPECT_TRUE(bit_identical(via_scenario, via_catalog));
}

TEST(ScenarioSpecTest, ExperimentConfigCarriesOperatingPoint) {
  ScenarioSpec spec = scenario("fig1_session_120hz");
  spec.ambient = Celsius{33.0};
  const ExperimentConfig cfg = spec.experiment_config(GovernorKind::kNext, 42);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_DOUBLE_EQ(cfg.refresh_hz, 120.0);
  EXPECT_DOUBLE_EQ(cfg.ambient.value(), 33.0);
  EXPECT_DOUBLE_EQ(cfg.duration.seconds(), 280.0);
  // The Next agent's QoS ceiling and reward bounds follow the panel and room.
  EXPECT_GE(cfg.next_config.ppdw_bounds.fps_max, 120.0);
  EXPECT_DOUBLE_EQ(cfg.next_config.ppdw_bounds.ambient.value(), 33.0);
}

TEST(ScenarioMatrixTest, SizeMatchesAxisProduct) {
  EXPECT_EQ(small_matrix().size(), 12u);
  ScenarioMatrix seeded = small_matrix();
  seeded.seeds(3);
  EXPECT_EQ(seeded.size(), 36u);
  // Unset axes keep each scenario's own value: one point, not zero.
  ScenarioMatrix bare;
  bare.add("fig1_session");
  EXPECT_EQ(bare.size(), 1u);
}

TEST(ScenarioMatrixTest, ExpansionIsDeterministicAndSeedStable) {
  ScenarioMatrix matrix = small_matrix();
  matrix.seeds(2);
  const auto a = matrix.expand();
  const auto b = matrix.expand();
  ASSERT_EQ(a.size(), matrix.size());
  ASSERT_EQ(a.size(), b.size());
  std::set<std::string> labels;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].spec.name, b[i].spec.name);
    EXPECT_EQ(a[i].spec.base_seed, b[i].spec.base_seed);
    EXPECT_DOUBLE_EQ(a[i].spec.ambient.value(), b[i].spec.ambient.value());
    EXPECT_DOUBLE_EQ(a[i].spec.refresh_hz, b[i].spec.refresh_hz);
    labels.insert(a[i].spec.name);
  }
  // Labels are unique (JSON keys, golden table keys).
  EXPECT_EQ(labels.size(), a.size());
  // Seed policy: index 0 keeps the scenario's base seed, index i derives.
  for (const auto& cell : a) {
    if (cell.seed_index == 0) {
      EXPECT_TRUE(cell.spec.base_seed == scenario("fig1_session").base_seed ||
                  cell.spec.base_seed == scenario("spotify_bursty").base_seed);
    } else {
      EXPECT_TRUE(cell.spec.base_seed ==
                      derive_seed(scenario("fig1_session").base_seed, cell.seed_index) ||
                  cell.spec.base_seed ==
                      derive_seed(scenario("spotify_bursty").base_seed, cell.seed_index));
    }
  }
}

TEST(ScenarioMatrixTest, RunPlanBitIdenticalAcrossWorkerCounts) {
  // The acceptance property: a >= 12-cell matrix through execute() is
  // bit-identical between serial execution and the worker pool (and
  // between different pool sizes).
  const ScenarioMatrix matrix = small_matrix();
  const RunPlan plan = matrix.to_run_plan(GovernorKind::kSchedutil);
  ASSERT_GE(plan.size(), 12u);
  const auto serial = execute(plan, {.workers = 1});
  const auto pooled4 = execute(plan, {.workers = 4});
  const auto pooled3 = execute(plan, {.workers = 3});
  ASSERT_EQ(serial.size(), pooled4.size());
  ASSERT_EQ(serial.size(), pooled3.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(bit_identical(serial[i], pooled4[i])) << "cell " << i;
    EXPECT_TRUE(bit_identical(serial[i], pooled3[i])) << "cell " << i;
  }
}

TEST(ScenarioMatrixTest, TrainingPlanExpansionSubstitutesOperatingPoint) {
  ScenarioMatrix matrix;
  matrix.add("fig1_session").ambients({15.0, 35.0}).refresh_rates({60.0, 120.0}).seeds(2);
  TrainingPlan plan;
  TrainingOptions base;
  base.max_duration = SimTime::from_seconds(120.0);
  const std::size_t added = matrix.append_to(plan, core::NextConfig{}, base);
  EXPECT_EQ(added, 8u);
  ASSERT_EQ(plan.size(), 8u);
  const auto cells = matrix.expand();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const TrainingSpec& t = plan.cells()[i];
    EXPECT_EQ(t.name, cells[i].spec.name);
    EXPECT_EQ(t.options.seed, cells[i].spec.base_seed);
    EXPECT_DOUBLE_EQ(t.options.ambient.value(), cells[i].spec.ambient.value());
    EXPECT_DOUBLE_EQ(t.options.refresh_hz, cells[i].spec.refresh_hz);
    EXPECT_DOUBLE_EQ(t.options.max_duration.seconds(), 120.0);
    EXPECT_GE(t.config.ppdw_bounds.fps_max, cells[i].spec.refresh_hz);
    EXPECT_DOUBLE_EQ(t.config.ppdw_bounds.ambient.value(), cells[i].spec.ambient.value());
  }
}

TEST(ScenarioPropertyTest, HigherAmbientNeverLowersPeakTemperature) {
  // Physics invariant across the Sec. V ambient range: the RC network's
  // boundary condition shifts up with the room, and leakage only amplifies
  // the shift, so peak temperatures are monotone in ambient.
  ScenarioSpec spec = scenario("fig1_session");
  spec.duration = SimTime::from_seconds(60.0);
  ScenarioMatrix matrix;
  matrix.add(std::move(spec)).ambients({15.0, 21.0, 25.0, 30.0, 35.0});
  const auto results = execute(matrix.to_run_plan(GovernorKind::kSchedutil));
  ASSERT_EQ(results.size(), 5u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i].peak_temp_big_c, results[i - 1].peak_temp_big_c)
        << "ambient step " << i;
    EXPECT_GE(results[i].peak_temp_device_c, results[i - 1].peak_temp_device_c)
        << "ambient step " << i;
    EXPECT_GE(results[i].avg_temp_device_c, results[i - 1].avg_temp_device_c)
        << "ambient step " << i;
  }
}

TEST(ScenarioPropertyTest, FpsNeverExceedsRefreshAcrossLibrary) {
  // VSync is a hard ceiling: for every library scenario at its own panel
  // rate, neither the session average nor any recorded sample exceeds
  // refresh_hz (small tolerance for the sliding-window FPS estimator).
  ScenarioMatrix matrix;
  for (std::string_view name : scenario_names()) {
    ScenarioSpec spec = scenario(name);
    spec.duration = SimTime::from_seconds(40.0);
    matrix.add(std::move(spec));
  }
  const auto cells = matrix.expand();
  RunPlan plan;
  append_cells(plan, cells, GovernorKind::kSchedutil);
  const auto results = execute(plan);
  ASSERT_EQ(results.size(), cells.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double refresh = cells[i].spec.refresh_hz;
    EXPECT_LE(results[i].avg_fps, refresh + 1.0) << cells[i].spec.name;
    for (const auto& sample : results[i].series) {
      EXPECT_LE(sample.fps, refresh + 1.5)
          << cells[i].spec.name << " at t=" << sample.time_s;
    }
  }
}

TEST(ScenarioPropertyTest, BackgroundBurstRaisesLoadOnlyDuringBursts) {
  // The bursty decorator must add load inside the burst window, keep the
  // app untouched outside it, and saturate at full utilization.
  const ScenarioSpec bursty = scenario("spotify_bursty");
  const ScenarioSpec plain = [&] {
    ScenarioSpec s = bursty;
    s.burst.enabled = false;
    return s;
  }();
  auto burst_app = bursty.app_factory()(7);
  auto plain_app = plain.app_factory()(7);
  const SimTime dt = SimTime::from_ms(1);
  double max_excess = 0.0;
  for (std::int64_t ms = 0; ms < 60000; ++ms) {
    const SimTime now = SimTime::from_ms(ms);
    burst_app->update(now, dt);
    plain_app->update(now, dt);
    const auto b = burst_app->background();
    const auto p = plain_app->background();
    const std::int64_t phase_us = now.us() % bursty.burst.period.us();
    const bool in_burst =
        phase_us >= bursty.burst.period.us() - bursty.burst.burst_length.us();
    if (in_burst) {
      EXPECT_GE(b.big_hot + 1e-12, p.big_hot);
      max_excess = std::max(max_excess, b.big_hot - p.big_hot);
    } else {
      EXPECT_DOUBLE_EQ(b.big_hot, p.big_hot);
      EXPECT_DOUBLE_EQ(b.little_avg, p.little_avg);
    }
    EXPECT_LE(b.big_hot, 1.0);
    EXPECT_LE(b.little_hot, 1.0);
  }
  EXPECT_GT(max_excess, 0.1);  // the bursts actually bite
}

TEST(ScenarioPropertyTest, EnergyNeverDecreasesWithDuration) {
  // A session's trajectory is a function of its scenario and seed alone,
  // so a longer session replays a shorter one and then keeps drawing power:
  // for a fixed scenario and seed, energy is monotone in duration. Checked
  // for a stock governor, a meta-governor and Next learning online.
  constexpr double kDurations[] = {2.0, 5.0, 11.0, 23.0};
  constexpr GovernorKind kGovernors[] = {GovernorKind::kSchedutil, GovernorKind::kIntQos,
                                         GovernorKind::kNext};
  std::vector<std::string> labels;
  RunPlan plan;
  for (const char* name : {"social_gaming", "binge_watch", "spotify_bursty", "pubg_hot35"}) {
    ScenarioSpec spec = scenario(name);
    for (const GovernorKind governor : kGovernors) {
      for (const double seconds : kDurations) {
        spec.duration = SimTime::from_seconds(seconds);
        ExperimentConfig config = spec.experiment_config(governor);
        config.next_mode = core::AgentMode::kTraining;  // ignored by the stock governors
        plan.add(spec.app_factory(), spec.name, config);
        labels.push_back(spec.name + "/" + std::string{to_string(governor)});
      }
    }
  }
  const auto results = execute(plan);
  ASSERT_EQ(results.size(), plan.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_GT(results[i].energy_j, 0.0) << labels[i];
    if (i % std::size(kDurations) == 0) continue;  // shortest session of its series
    EXPECT_GE(results[i].energy_j, results[i - 1].energy_j)
        << labels[i] << " at " << results[i].duration_s << " s";
  }
}

}  // namespace
}  // namespace nextgov::sim
