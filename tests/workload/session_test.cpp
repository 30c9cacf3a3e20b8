// Unit tests for multi-app sessions (the Fig. 1 / Fig. 3 workload), built
// the way every session is built: from the scenario library.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/scenario.hpp"
#include "workload/session.hpp"
#include "literals.hpp"

namespace nextgov::workload {
namespace {

using namespace nextgov::literals;

std::unique_ptr<App> fig1_session(std::uint64_t seed) {
  return sim::scenario("fig1_session").app_factory()(seed);
}

/// Which of the Fig. 1 apps a phase belongs to (their phase names are
/// disjoint).
std::string app_of_phase(std::string_view phase) {
  static const std::set<std::string_view> home{"idle_static", "swipe_pages", "open_anim"};
  static const std::set<std::string_view> facebook{"splash", "scroll_feed", "read_idle",
                                                   "feed_video"};
  static const std::set<std::string_view> spotify{"browse", "playback_idle", "lyrics_anim"};
  if (home.contains(phase)) return "home";
  if (facebook.contains(phase)) return "facebook";
  if (spotify.contains(phase)) return "spotify";
  return "unknown phase " + std::string{phase};
}

TEST(Session, Fig1SessionWalksHomeFacebookSpotify) {
  const sim::ScenarioSpec spec = sim::scenario("fig1_session");
  EXPECT_DOUBLE_EQ(spec.effective_duration().seconds(), 280.0);
  auto session = spec.app_factory()(1);

  // Step through each segment; every phase seen must belong to its app.
  const struct {
    double from_s;
    double to_s;
    const char* app;
  } segments[] = {{0.0, 30.0, "home"}, {30.0, 150.0, "facebook"}, {150.0, 400.0, "spotify"}};
  for (const auto& seg : segments) {
    for (SimTime t = SimTime::from_seconds(seg.from_s); t < SimTime::from_seconds(seg.to_s);
         t += SimTime::from_ms(100)) {
      session->update(t, SimTime::from_ms(100));
      ASSERT_EQ(app_of_phase(session->phase_name()), seg.app) << "at " << t.seconds() << " s";
    }
  }
}

TEST(Session, AppSwitchEntersInitialPhase) {
  auto session = fig1_session(2);
  // Drive up to just after the facebook switch; facebook opens with its
  // splash (initial_only) phase - the launch-cost scenario.
  SimTime t = SimTime::zero();
  while (t < SimTime::from_seconds(30.2)) {
    session->update(t, 1_ms);
    t += 1_ms;
  }
  EXPECT_EQ(session->phase_name(), "splash");
}

TEST(Session, RejectsEmptyOrInvalidSegments) {
  EXPECT_THROW(SessionApp({}, {}), ConfigError);
  std::vector<std::unique_ptr<PhasedApp>> apps;
  apps.push_back(make_app(AppId::kHome, 1));
  EXPECT_THROW(SessionApp({{AppId::kHome, SimTime::zero()}}, std::move(apps)), ConfigError);
}

TEST(Session, DelegatesFrameDemandToActiveApp) {
  std::vector<std::unique_ptr<PhasedApp>> apps;
  apps.push_back(make_app(AppId::kLineage, 3));
  SessionApp session{{{AppId::kLineage, SimTime::from_seconds(60.0)}}, std::move(apps)};
  session.update(SimTime::zero(), 1_ms);
  EXPECT_EQ(session.phase_name(), "loading");
  EXPECT_GE(session.background().big_hot, 0.9);
}

TEST(Session, DeterministicAcrossReplicas) {
  auto a = fig1_session(7);
  auto b = fig1_session(7);
  SimTime t = SimTime::zero();
  for (int i = 0; i < 280'000; i += 10) {
    a->update(t, SimTime::from_ms(10));
    b->update(t, SimTime::from_ms(10));
    ASSERT_EQ(a->phase_name(), b->phase_name());
    t += SimTime::from_ms(10);
  }
}

}  // namespace
}  // namespace nextgov::workload
