// Integration tests for high-refresh-rate panels (paper Section I: "there
// are some commercial devices which have higher display refresh rate such
// as 90 Hz, 120 Hz"). The substrate must honour the refresh knob end to
// end: VSync cadence, FPS ceilings, frame-drop semantics and the Next
// agent's QoS bounds.
#include <gtest/gtest.h>

#include "core/next_agent.hpp"
#include "governors/schedutil.hpp"
#include "sim/engine.hpp"
#include "workload/apps.hpp"
#include "workload/phased_app.hpp"
#include "literals.hpp"

namespace nextgov::sim {
namespace {

using namespace nextgov::literals;

/// A deliberately light always-rendering app: cheap enough to hit any
/// refresh ceiling at max clocks.
workload::AppSpec light_continuous_app() {
  workload::AppSpec s;
  s.name = "light_anim";
  workload::PhaseSpec p;
  p.name = "anim";
  p.demand = workload::FrameDemand::kContinuous;
  p.cpu = {1.0e6, 0.0};
  p.gpu = {0.8e6, 0.0};
  p.mean_duration_s = 1000.0;
  s.phases.push_back(p);
  return s;
}

std::unique_ptr<Engine> engine_at(double refresh_hz, std::uint64_t seed) {
  EngineConfig cfg;
  cfg.refresh_hz = refresh_hz;
  return std::make_unique<Engine>(
      soc::make_exynos9810(),
      std::make_unique<workload::PhasedApp>(light_continuous_app(), Rng{seed}),
      std::make_unique<governors::SchedutilGovernor>(), nullptr, cfg);
}

class RefreshRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(RefreshRateSweep, FpsCeilingTracksRefreshRate) {
  const double hz = GetParam();
  auto engine = engine_at(hz, 3);
  engine->run(10_s);
  const double fps = engine->average_fps();
  // A trivially light workload saturates the panel: FPS == refresh rate.
  EXPECT_NEAR(fps, hz, hz * 0.06) << "refresh " << hz;
  // And never exceeds it (VSync is a hard ceiling).
  EXPECT_LE(fps, hz + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Panels, RefreshRateSweep, ::testing::Values(60.0, 90.0, 120.0));

TEST(HighRefresh, HigherRefreshCostsMorePowerForSameWorkload) {
  // Rendering 120 frames instead of 60 per second doubles the frame work:
  // the power ordering must follow.
  auto at60 = engine_at(60.0, 5);
  auto at120 = engine_at(120.0, 5);
  at60->run(20_s);
  at120->run(20_s);
  EXPECT_GT(at120->totals().power_w.mean(), at60->totals().power_w.mean());
}

TEST(HighRefresh, NextAgentTracksA90HzTarget) {
  // The agent's QoS bounds scale to the panel: on a 90 Hz device the frame
  // window must be able to report 90 FPS targets.
  EngineConfig cfg;
  cfg.refresh_hz = 90.0;
  core::NextConfig next_cfg;
  next_cfg.ppdw_bounds.fps_max = 90.0;  // widen the QoS range
  auto soc = soc::make_exynos9810();
  auto agent = core::make_next_agent(soc, next_cfg, 9);
  agent->set_mode(core::AgentMode::kTraining);
  auto engine = std::make_unique<Engine>(
      std::move(soc), std::make_unique<workload::PhasedApp>(light_continuous_app(), Rng{9}),
      std::make_unique<governors::SchedutilGovernor>(), std::move(agent), cfg);
  engine->run(30_s);
  auto* next = dynamic_cast<core::NextAgent*>(engine->meta());
  ASSERT_NE(next, nullptr);
  // The sustained 90 FPS stream must be visible as the window's mode.
  EXPECT_GE(next->current_target_fps(), 80);
  EXPECT_LE(next->current_target_fps(), 91);
}

}  // namespace
}  // namespace nextgov::sim
