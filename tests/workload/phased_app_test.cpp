// Unit tests for the phase-machine application model.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "workload/phased_app.hpp"
#include "literals.hpp"

namespace nextgov::workload {
namespace {

using namespace nextgov::literals;

AppSpec two_phase_spec() {
  AppSpec s;
  s.name = "test_app";
  PhaseSpec idle;
  idle.name = "idle";
  idle.demand = FrameDemand::kNone;
  idle.cpu = {1e5, 0.0};
  idle.gpu = {1e5, 0.0};
  idle.mean_duration_s = 2.0;
  idle.weight = 1.0;
  PhaseSpec active;
  active.name = "active";
  active.demand = FrameDemand::kContinuous;
  active.cpu = {5e6, 0.0};
  active.gpu = {3e6, 0.0};
  active.mean_duration_s = 2.0;
  active.weight = 1.0;
  s.phases = {idle, active};
  return s;
}

TEST(PhasedApp, RejectsInvalidSpecs) {
  AppSpec s = two_phase_spec();
  s.phases.clear();
  EXPECT_THROW(PhasedApp(s, Rng{1}), ConfigError);

  s = two_phase_spec();
  s.initial_phase = 9;
  EXPECT_THROW(PhasedApp(s, Rng{1}), ConfigError);

  s = two_phase_spec();
  s.phases[0].mean_duration_s = 0.0;
  EXPECT_THROW(PhasedApp(s, Rng{1}), ConfigError);

  s = two_phase_spec();
  s.phases[1].demand = FrameDemand::kCadence;
  s.phases[1].cadence_fps = 0.0;
  EXPECT_THROW(PhasedApp(s, Rng{1}), ConfigError);
}

TEST(PhasedApp, IdlePhaseWantsNoFrames) {
  AppSpec s = two_phase_spec();
  s.phases[0].mean_duration_s = 1000.0;  // stay in idle
  PhasedApp app{s, Rng{1}};
  app.update(SimTime::zero(), 1_ms);
  EXPECT_EQ(app.phase_name(), "idle");
  EXPECT_FALSE(app.wants_frame(SimTime::zero()));
}

TEST(PhasedApp, ContinuousPhaseAlwaysWantsFrames) {
  AppSpec s = two_phase_spec();
  s.initial_phase = 1;
  s.phases[1].mean_duration_s = 1000.0;
  PhasedApp app{s, Rng{1}};
  app.update(SimTime::zero(), 1_ms);
  EXPECT_EQ(app.phase_name(), "active");
  EXPECT_TRUE(app.wants_frame(SimTime::zero()));
  const auto job = app.begin_frame(SimTime::zero());
  EXPECT_DOUBLE_EQ(job.cpu_cycles, 5e6);
  EXPECT_DOUBLE_EQ(job.gpu_cycles, 3e6);
}

TEST(PhasedApp, CadenceAccumulatesCredit) {
  AppSpec s = two_phase_spec();
  s.phases[0].demand = FrameDemand::kCadence;
  s.phases[0].cadence_fps = 10.0;  // one frame every 100 ms
  s.phases[0].mean_duration_s = 1000.0;
  PhasedApp app{s, Rng{1}};
  SimTime t = SimTime::zero();
  int frames = 0;
  for (int i = 0; i < 1000; ++i) {  // 1 s
    app.update(t, 1_ms);
    if (app.wants_frame(t)) {
      (void)app.begin_frame(t);
      ++frames;
    }
    t += 1_ms;
  }
  EXPECT_NEAR(frames, 10, 1);
}

TEST(PhasedApp, TransitionsBetweenPhases) {
  PhasedApp app{two_phase_spec(), Rng{5}};
  int idle_steps = 0;
  int active_steps = 0;
  SimTime t = SimTime::zero();
  for (int i = 0; i < 120'000; ++i) {  // 120 s at 1 ms
    app.update(t, 1_ms);
    (app.phase_name() == "idle" ? idle_steps : active_steps) += 1;
    t += 1_ms;
  }
  EXPECT_GT(idle_steps, 10'000);
  EXPECT_GT(active_steps, 10'000);
}

TEST(PhasedApp, InitialOnlyPhaseNeverReenters) {
  AppSpec s = two_phase_spec();
  PhaseSpec splash;
  splash.name = "splash";
  splash.demand = FrameDemand::kCadence;
  splash.cadence_fps = 8.0;
  splash.cpu = {1e6, 0.0};
  splash.gpu = {1e6, 0.0};
  splash.mean_duration_s = 1.0;
  splash.min_duration_s = 1.0;
  splash.duration_sigma = 0.0;
  splash.initial_only = true;
  s.phases.insert(s.phases.begin(), splash);
  s.initial_phase = 0;
  PhasedApp app{s, Rng{5}};
  SimTime t = SimTime::zero();
  app.update(t, 1_ms);
  EXPECT_EQ(app.phase_name(), "splash");
  bool splash_seen_after_exit = false;
  bool exited = false;
  for (int i = 0; i < 60'000; ++i) {
    t += 1_ms;
    app.update(t, 1_ms);
    const bool in_splash = app.phase_name() == "splash";
    if (!in_splash) exited = true;
    if (exited && in_splash) splash_seen_after_exit = true;
  }
  EXPECT_TRUE(exited);
  EXPECT_FALSE(splash_seen_after_exit);
}

TEST(PhasedApp, WorkSamplingPreservesMean) {
  AppSpec s = two_phase_spec();
  s.initial_phase = 1;
  s.phases[1].mean_duration_s = 1e6;
  s.phases[1].cpu = {6e6, 0.4};  // lognormal with mean 6e6
  PhasedApp app{s, Rng{17}};
  app.update(SimTime::zero(), 1_ms);
  double sum = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += app.begin_frame(SimTime::zero()).cpu_cycles;
  EXPECT_NEAR(sum / n / 6e6, 1.0, 0.03);
}

TEST(PhasedApp, PhaseSequenceIndependentOfFrameConsumption) {
  // Two replicas; one renders (consumes work samples), one does not. The
  // phase sequence must match (fair cross-governor comparisons).
  PhasedApp a{two_phase_spec(), Rng{23}};
  PhasedApp b{two_phase_spec(), Rng{23}};
  SimTime t = SimTime::zero();
  for (int i = 0; i < 100'000; ++i) {
    a.update(t, 1_ms);
    b.update(t, 1_ms);
    if (a.wants_frame(t)) (void)a.begin_frame(t);  // only a consumes
    ASSERT_EQ(a.phase_name(), b.phase_name()) << "diverged at " << t.seconds() << " s";
    t += 1_ms;
  }
}

TEST(PhasedApp, BackgroundLoadFollowsPhase) {
  AppSpec s = two_phase_spec();
  s.phases[0].background.big_hot = 0.7;
  s.phases[0].mean_duration_s = 1000.0;
  PhasedApp app{s, Rng{1}};
  app.update(SimTime::zero(), 1_ms);
  EXPECT_DOUBLE_EQ(app.background().big_hot, 0.7);
}

}  // namespace
}  // namespace nextgov::workload
