// session.hpp - multi-app usage sessions.
//
// The paper's Figs. 1 and 3 use a single session that walks through the
// home screen, then Facebook, then Spotify. SessionApp chains apps with
// fixed segment durations; switching to the next app re-enters that app's
// initial (splash/loading) phase, modelling the launch cost the paper
// discusses (FPS collapses while CPU load peaks). The scenario library
// (sim/scenario.hpp, e.g. "fig1_session") builds every multi-app session.
#pragma once

#include <memory>
#include <vector>

#include "workload/app.hpp"
#include "workload/apps.hpp"

namespace nextgov::workload {

struct SessionSegment {
  AppId app;
  SimTime duration;
};

class SessionApp final : public App {
 public:
  /// Builds a session from pre-constructed apps, one per segment, in
  /// segment order, so callers can customize each app's AppSpec before
  /// instantiation (the scenario library's user-model overrides).
  SessionApp(std::vector<SessionSegment> segments,
             std::vector<std::unique_ptr<PhasedApp>> apps);

  void update(SimTime now, SimTime dt) override;
  [[nodiscard]] bool wants_frame(SimTime now) override;
  [[nodiscard]] render::FrameJob begin_frame(SimTime now) override;
  [[nodiscard]] BackgroundLoad background() const override;
  [[nodiscard]] std::string_view name() const override { return "session"; }
  [[nodiscard]] std::string_view phase_name() const override;

 private:
  void maybe_advance(SimTime now);

  std::vector<SessionSegment> segments_;
  std::vector<std::unique_ptr<PhasedApp>> apps_;
  std::size_t current_{0};
  SimTime segment_end_;
};

}  // namespace nextgov::workload
