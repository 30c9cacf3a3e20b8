// Tests for the seven evaluation workloads: each must reproduce its
// paper-documented FPS-demand signature (see apps.hpp).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "workload/apps.hpp"
#include "literals.hpp"

namespace nextgov::workload {
namespace {

using namespace nextgov::literals;

TEST(Apps, AllSixEvaluationAppsExist) {
  const auto apps = all_apps();
  ASSERT_EQ(apps.size(), 6u);
  for (AppId id : apps) {
    auto app = make_app(id, 1);
    EXPECT_EQ(app->name(), to_string(id));
  }
}

TEST(Apps, GameClassification) {
  EXPECT_TRUE(is_game(AppId::kLineage));
  EXPECT_TRUE(is_game(AppId::kPubg));
  EXPECT_FALSE(is_game(AppId::kFacebook));
  EXPECT_FALSE(is_game(AppId::kSpotify));
  EXPECT_FALSE(is_game(AppId::kWebBrowser));
  EXPECT_FALSE(is_game(AppId::kYoutube));
}

TEST(Apps, PaperSessionLengths) {
  // Section V: games 5 min, other apps 1.5-3 min (we use 150 s midpoint).
  EXPECT_DOUBLE_EQ(paper_session_length(AppId::kLineage).seconds(), 300.0);
  EXPECT_DOUBLE_EQ(paper_session_length(AppId::kPubg).seconds(), 300.0);
  EXPECT_DOUBLE_EQ(paper_session_length(AppId::kFacebook).seconds(), 150.0);
  EXPECT_DOUBLE_EQ(paper_session_length(AppId::kYoutube).seconds(), 150.0);
}

TEST(Apps, GamesStartInLoadingPhaseWithHeavyCpuAndNoRealFrames) {
  // The splash-screen scenario of Section II: FPS collapses while CPU load
  // is maximal.
  for (AppId id : {AppId::kLineage, AppId::kPubg}) {
    auto app = make_app(id, 3);
    app->update(SimTime::zero(), 1_ms);
    EXPECT_EQ(app->phase_name(), "loading") << to_string(id);
    EXPECT_GE(app->background().big_hot, 0.9) << to_string(id);
  }
}

TEST(Apps, SpotifyIsMostlyIdleWithWarmBackground) {
  // Fig. 1 right: FPS ~0 for long stretches while frequencies stay high.
  auto app = make_app(AppId::kSpotify, 5);
  SimTime t = SimTime::zero();
  int idle_like = 0;
  int total = 0;
  for (int i = 0; i < 150'000; ++i) {
    app->update(t, 1_ms);
    if (app->phase_name() == "playback_idle") {
      ++idle_like;
      EXPECT_GE(app->background().big_hot, 0.5);
    }
    ++total;
    t += 1_ms;
  }
  EXPECT_GT(static_cast<double>(idle_like) / total, 0.5);
}

TEST(Apps, SpecValidation) {
  for (AppId id : all_apps()) {
    const AppSpec spec = spec_for(id);
    EXPECT_FALSE(spec.phases.empty()) << to_string(id);
    for (const auto& phase : spec.phases) {
      EXPECT_GT(phase.mean_duration_s, 0.0);
      EXPECT_GE(phase.background.big_avg, 0.0);
      EXPECT_LE(phase.background.big_hot, 1.0);
      if (phase.demand == FrameDemand::kCadence) {
        EXPECT_GT(phase.cadence_fps, 0.0);
      }
    }
  }
}

TEST(Apps, DistinctSeedsGiveDistinctSessions) {
  auto a = make_app(AppId::kFacebook, 1);
  auto b = make_app(AppId::kFacebook, 2);
  SimTime t = SimTime::zero();
  int diverged = 0;
  for (int i = 0; i < 120'000; ++i) {
    a->update(t, 1_ms);
    b->update(t, 1_ms);
    if (a->phase_name() != b->phase_name()) ++diverged;
    t += 1_ms;
  }
  EXPECT_GT(diverged, 1000);
}

TEST(Apps, UnknownAppIdThrows) {
  EXPECT_THROW(spec_for(static_cast<AppId>(99)), ConfigError);
}

/// Property sweep over all apps: behaviour stays well-formed over a long
/// session (phases valid, background loads within [0,1], frame jobs
/// positive).
class AppBehaviourProperty : public ::testing::TestWithParam<AppId> {};

TEST_P(AppBehaviourProperty, LongSessionStaysWellFormed) {
  auto app = make_app(GetParam(), 11);
  SimTime t = SimTime::zero();
  for (int i = 0; i < 200'000; ++i) {  // 200 s
    app->update(t, 1_ms);
    const auto& bg = app->background();
    ASSERT_GE(bg.big_avg, 0.0);
    ASSERT_LE(bg.big_avg, 1.0);
    ASSERT_LE(bg.big_hot, 1.0);
    ASSERT_LE(bg.little_hot, 1.0);
    ASSERT_LE(bg.gpu_avg, 1.0);
    if (app->wants_frame(t)) {
      const auto job = app->begin_frame(t);
      ASSERT_GT(job.cpu_cycles, 0.0);
      ASSERT_GT(job.gpu_cycles, 0.0);
      ASSERT_LT(job.cpu_cycles, 1e9);  // < 0.5 s at min freq: sane
    }
    t += 1_ms;
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppBehaviourProperty,
                         ::testing::Values(AppId::kHome, AppId::kFacebook, AppId::kSpotify,
                                           AppId::kWebBrowser, AppId::kYoutube, AppId::kLineage,
                                           AppId::kPubg),
                         [](const ::testing::TestParamInfo<AppId>& info) {
                           return std::string{to_string(info.param)};
                         });

}  // namespace
}  // namespace nextgov::workload
