// Integration tests: full sessions across the whole stack reproduce the
// paper's qualitative signatures (Fig. 1 phenomena).
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "run_app.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"

namespace nextgov::sim {
namespace {

TEST(SessionIntegration, SpotifyShowsHighFrequencyAtNearZeroFps) {
  // The paper's Fig. 1 (right): under schedutil, Spotify's FPS collapses
  // toward 0 while the big cluster keeps running at high frequency - the
  // motivating waste.
  ExperimentConfig cfg;
  cfg.duration = SimTime::from_seconds(120.0);
  const SessionResult r = test::run_app(workload::AppId::kSpotify, cfg);
  int wasteful_samples = 0;
  for (const auto& s : r.series) {
    if (s.fps <= 5.0 && s.f_big_mhz >= 1500.0) ++wasteful_samples;
  }
  EXPECT_GT(wasteful_samples, static_cast<int>(r.series.size()) / 4)
      << "expected many low-FPS/high-frequency samples";
}

TEST(SessionIntegration, FacebookAlternatesBurstsAndIdle) {
  // Fig. 1 (middle): interaction bursts near 60 FPS alternating with ~0.
  ExperimentConfig cfg;
  cfg.duration = SimTime::from_seconds(150.0);
  cfg.seed = 3;
  const SessionResult r = test::run_app(workload::AppId::kFacebook, cfg);
  int high = 0;
  int idle = 0;
  for (const auto& s : r.series) {
    if (s.fps >= 40.0) ++high;
    if (s.fps <= 5.0) ++idle;
  }
  EXPECT_GT(high, 8);
  EXPECT_GT(idle, 8);
}

TEST(SessionIntegration, YoutubeHoldsVideoCadence) {
  ExperimentConfig cfg;
  cfg.duration = SimTime::from_seconds(120.0);
  const SessionResult r = test::run_app(workload::AppId::kYoutube, cfg);
  int at_30 = 0;
  for (const auto& s : r.series) {
    if (s.fps >= 25.0 && s.fps <= 35.0) ++at_30;
  }
  EXPECT_GT(at_30, static_cast<int>(r.series.size()) / 2);
}

TEST(SessionIntegration, GamesRunHotAndFast) {
  ExperimentConfig cfg;
  cfg.duration = SimTime::from_seconds(300.0);
  const SessionResult r = test::run_app(workload::AppId::kLineage, cfg);
  EXPECT_GT(r.avg_fps, 45.0);
  EXPECT_GT(r.avg_power_w, 5.0);
  EXPECT_GT(r.peak_temp_big_c, 65.0);
  EXPECT_LT(r.peak_temp_big_c, 97.0);  // thermal throttle holds the line
}

TEST(SessionIntegration, Fig1SessionVisitsAllThreeAppSignatures) {
  ExperimentConfig cfg;
  cfg.duration = SimTime::from_seconds(280.0);
  const SessionResult r = run_session(scenario("fig1_session").app_factory(), "fig1session", cfg);
  // Segment-wise FPS character: home (bursty), facebook (mixed),
  // spotify (near zero).
  RunningStats home_fps;
  RunningStats spotify_fps;
  for (const auto& s : r.series) {
    if (s.time_s < 30.0) home_fps.add(s.fps);
    if (s.time_s > 160.0) spotify_fps.add(s.fps);
  }
  EXPECT_LT(spotify_fps.mean(), 15.0);
  EXPECT_GT(home_fps.mean(), spotify_fps.mean());
}

TEST(SessionIntegration, DevicePowerAlwaysWithinPhysicalEnvelope) {
  for (auto app : workload::all_apps()) {
    ExperimentConfig cfg;
    cfg.duration = SimTime::from_seconds(60.0);
    const SessionResult r = test::run_app(app, cfg);
    EXPECT_GT(r.avg_power_w, 1.0) << workload::to_string(app);
    EXPECT_LT(r.peak_power_w, 13.0) << workload::to_string(app);
    EXPECT_GE(r.avg_temp_big_c, 20.0) << workload::to_string(app);
    EXPECT_LT(r.peak_temp_big_c, 97.0) << workload::to_string(app);
  }
}

}  // namespace
}  // namespace nextgov::sim
