// Unit tests for the simulation engine: wiring, accounting, throttling,
// determinism.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string_view>

#include "governors/schedutil.hpp"
#include "governors/simple_governors.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"
#include "soc/sensors.hpp"
#include "thermal/note9_model.hpp"
#include "workload/apps.hpp"
#include "literals.hpp"

namespace nextgov::sim {
namespace {

using namespace nextgov::literals;

std::unique_ptr<Engine> make_test_engine(workload::AppId app, std::uint64_t seed,
                                         EngineConfig cfg = {}) {
  return std::make_unique<Engine>(soc::make_exynos9810(), workload::make_app(app, seed),
                                  std::make_unique<governors::SchedutilGovernor>(), nullptr,
                                  cfg);
}

TEST(Engine, TimeAdvancesByStep) {
  auto e = make_test_engine(workload::AppId::kFacebook, 1);
  EXPECT_EQ(e->now(), SimTime::zero());
  e->step();
  EXPECT_EQ(e->now(), 1_ms);
  e->run(99_ms);
  EXPECT_EQ(e->now(), 100_ms);
}

TEST(Engine, RequiresAppAndGovernor) {
  EXPECT_THROW(Engine(soc::make_exynos9810(), nullptr,
                      std::make_unique<governors::SchedutilGovernor>(), nullptr, {}),
               ConfigError);
  EXPECT_THROW(Engine(soc::make_exynos9810(), workload::make_app(workload::AppId::kHome, 1),
                      nullptr, nullptr, {}),
               ConfigError);
}

TEST(Engine, EnergyEqualsMeanPowerTimesTime) {
  auto e = make_test_engine(workload::AppId::kFacebook, 1);
  e->run(20_s);
  const auto& t = e->totals();
  EXPECT_NEAR(t.energy_j, t.power_w.mean() * 20.0, t.energy_j * 0.01);
}

TEST(Engine, SensorsAreQuantized) {
  auto e = make_test_engine(workload::AppId::kFacebook, 1);
  e->run(5_s);
  // The recorder copies the sensor block the governors see.
  const Sample& s = e->recorder().samples().back();
  EXPECT_NEAR(s.temp_big_c * 10.0, std::round(s.temp_big_c * 10.0), 1e-9);
  EXPECT_NEAR(s.power_w * 1000.0, std::round(s.power_w * 1000.0), 1e-9);
}

/// A meta governor that only watches: sampled every step, it keeps the
/// sensor block of the latest observation.
class SensorTap final : public governors::MetaGovernor {
 public:
  [[nodiscard]] SimTime period() const override { return SimTime::from_seconds(1e4); }
  [[nodiscard]] SimTime sample_period() const override { return 1_ms; }
  void on_sample(const governors::Observation& obs) override { last = obs.sensors; }
  void control(const governors::Observation&, soc::Soc&) override {}
  [[nodiscard]] std::string_view name() const override { return "sensor_tap"; }
  soc::SensorReadings last{};
};

std::uint64_t bits(Celsius t) { return std::bit_cast<std::uint64_t>(t.value()); }

TEST(Engine, TemperatureSensorsQuantizeTheRawNodesEveryStep) {
  // The engine re-quantizes a sensor only when its reading may change and
  // the device sensor only when an input was re-quantized. Every step's
  // readings must still equal quantize_temperature of the raw node
  // temperatures: through 0 C (a sub-zero room warming up), in a cold
  // room, at the paper's 21 C, and across session resets, which force a
  // rebuild and drop the temperatures back to ambient.
  const thermal::Note9Nodes nodes = thermal::make_note9_thermal(Celsius{21.0}).nodes;
  const auto q = [](double raw) { return soc::quantize_temperature(Celsius{raw}); };
  for (const double ambient : {-0.4, -15.0, 21.0}) {
    EngineConfig cfg;
    cfg.ambient = Celsius{ambient};
    auto owned_tap = std::make_unique<SensorTap>();
    const SensorTap& tap = *owned_tap;
    Engine e{soc::make_exynos9810(), workload::make_app(workload::AppId::kLineage, 1),
             std::make_unique<governors::SchedutilGovernor>(), std::move(owned_tap), cfg};
    for (std::uint64_t session = 0; session < 3; ++session) {
      for (int step = 0; step < 15'000; ++step) {
        e.step();
        const auto raw = e.thermal().temperatures_raw();
        const Celsius big = q(raw[nodes.big]);
        const Celsius little = q(raw[nodes.little]);
        const Celsius gpu = q(raw[nodes.gpu]);
        const Celsius battery = q(raw[nodes.battery]);
        const Celsius skin = q(raw[nodes.skin]);
        const Celsius device = soc::quantize_temperature(
            soc::virtual_device_temperature(battery, skin, big, little, gpu));
        const soc::SensorReadings& s = tap.last;
        ASSERT_EQ(bits(s.big), bits(big)) << ambient << " C, session " << session << ", " << step;
        ASSERT_EQ(bits(s.little), bits(little)) << ambient << " C, step " << step;
        ASSERT_EQ(bits(s.gpu), bits(gpu)) << ambient << " C, step " << step;
        ASSERT_EQ(bits(s.battery), bits(battery)) << ambient << " C, step " << step;
        ASSERT_EQ(bits(s.skin), bits(skin)) << ambient << " C, step " << step;
        ASSERT_EQ(bits(s.device), bits(device)) << ambient << " C, step " << step;
      }
      e.reset_session(workload::make_app(workload::AppId::kLineage, session + 2));
    }
  }
}

TEST(Engine, TemperaturesStartAtAmbientAndRise) {
  EngineConfig cfg;
  cfg.ambient = Celsius{21.0};
  auto e = make_test_engine(workload::AppId::kLineage, 1, cfg);
  e->run(60_s);
  const std::vector<Sample>& samples = e->recorder().samples();
  EXPECT_NEAR(samples.front().temp_big_c, 21.0, 0.2);
  EXPECT_GT(samples.back().temp_big_c, 35.0);
  EXPECT_GT(samples.back().temp_device_c, 22.0);
}

TEST(Engine, DeterministicForIdenticalSeeds) {
  auto a = make_test_engine(workload::AppId::kFacebook, 7);
  auto b = make_test_engine(workload::AppId::kFacebook, 7);
  a->run(30_s);
  b->run(30_s);
  EXPECT_EQ(a->totals().frames_presented, b->totals().frames_presented);
  EXPECT_DOUBLE_EQ(a->totals().power_w.mean(), b->totals().power_w.mean());
  EXPECT_DOUBLE_EQ(a->totals().temp_big_c.max(), b->totals().temp_big_c.max());
}

TEST(Engine, RecorderSamplesAtConfiguredPeriod) {
  EngineConfig cfg;
  cfg.record_period = SimTime::from_seconds(0.5);
  auto e = make_test_engine(workload::AppId::kFacebook, 1, cfg);
  e->run(10_s);
  EXPECT_NEAR(static_cast<double>(e->recorder().samples().size()), 20.0, 2.0);
}

TEST(Engine, ThermalThrottleCapsRunawayTemperature) {
  // performance governor on the heaviest game: without throttling the
  // junction would exceed the limit; the engine must hold it near the
  // limit instead.
  EngineConfig cfg;
  cfg.throttle_limit_c = 92.0;
  auto e = std::make_unique<Engine>(soc::make_exynos9810(),
                                    workload::make_app(workload::AppId::kPubg, 1),
                                    std::make_unique<governors::PerformanceGovernor>(), nullptr,
                                    cfg);
  e->run(300_s);
  EXPECT_LT(e->totals().temp_big_c.max(), 97.0);
}

TEST(Engine, ThrottleDisabledAllowsHigherPeaks) {
  EngineConfig on;
  EngineConfig off;
  off.thermal_throttle = false;
  auto hot = std::make_unique<Engine>(soc::make_exynos9810(),
                                      workload::make_app(workload::AppId::kPubg, 1),
                                      std::make_unique<governors::PerformanceGovernor>(),
                                      nullptr, off);
  auto cool = std::make_unique<Engine>(soc::make_exynos9810(),
                                       workload::make_app(workload::AppId::kPubg, 1),
                                       std::make_unique<governors::PerformanceGovernor>(),
                                       nullptr, on);
  hot->run(300_s);
  cool->run(300_s);
  // Throttling can only lower (or match, when equilibrium sits below the
  // limit anyway) the peak; and it must hold the line near the limit.
  EXPECT_GE(hot->totals().temp_big_c.max(), cool->totals().temp_big_c.max() - 0.2);
  EXPECT_LT(cool->totals().temp_big_c.max(), 97.0);
}

TEST(Engine, ResetSessionRestoresColdState) {
  auto e = make_test_engine(workload::AppId::kLineage, 1);
  e->run(60_s);
  ASSERT_GT(e->totals().temp_big_c.max(), 30.0);
  e->reset_session(workload::make_app(workload::AppId::kLineage, 2));
  EXPECT_EQ(e->totals().frames_presented, 0);
  EXPECT_DOUBLE_EQ(e->totals().energy_j, 0.0);
  e->step();
  EXPECT_NEAR(e->totals().temp_big_c.max(), 21.0, 0.2);
}

TEST(Engine, PowersaveUsesLessEnergyThanPerformance) {
  const auto run_with = [](auto governor) {
    auto e = std::make_unique<Engine>(soc::make_exynos9810(),
                                      workload::make_app(workload::AppId::kFacebook, 3),
                                      std::move(governor), nullptr, EngineConfig{});
    e->run(30_s);
    return e->totals().energy_j;
  };
  const double perf = run_with(std::make_unique<governors::PerformanceGovernor>());
  const double save = run_with(std::make_unique<governors::PowersaveGovernor>());
  EXPECT_LT(save, perf * 0.7);
}

TEST(Engine, FpsObservationMatchesPresentedFrames) {
  auto e = make_test_engine(workload::AppId::kYoutube, 1);
  e->run(30_s);
  // Average FPS derived from totals must be in the same band as the
  // instantaneous observation for a steady 30 FPS video.
  EXPECT_NEAR(e->average_fps(), 30.0, 5.0);
}

// The suite name predates per-session stepping as execute()'s only path
// (the phase split once fed a batch-resident lock-step pipeline); it is
// kept so test history stays traceable.
TEST(BatchResident, EnginePhaseSplitComposesToStep) {
  // External drivers (perfbench's hand-stepped phone loop, execute()'s
  // phase timings) step the phases one by one; their concatenation must be
  // exactly step(). Run one engine through each path and demand a
  // bitwise-equal summary.
  ScenarioSpec spec = scenario("fig1_session");
  spec.duration = SimTime::from_seconds(2.0);
  const ExperimentConfig config = spec.experiment_config(GovernorKind::kNext);
  auto phased = make_engine(spec.app_factory(), config);
  auto stepped = make_engine(spec.app_factory(), config);

  const SimTime dt = phased->config().step;
  const std::int64_t ticks = config.duration.us() / dt.us();
  for (std::int64_t t = 0; t < ticks; ++t) {
    phased->step_pre_power();
    phased->apply_power_model();
    phased->thermal().step(dt);
    phased->step_post_observe();
    phased->step_post_meta();
    phased->step_post_finish();
    stepped->step();
  }
  EXPECT_TRUE(bit_identical(summarize(*phased, "app", "gov"),
                            summarize(*stepped, "app", "gov")));
  EXPECT_EQ(phased->now().us(), stepped->now().us());
}

}  // namespace
}  // namespace nextgov::sim
