#include "workload/session.hpp"

#include "common/error.hpp"

namespace nextgov::workload {

SessionApp::SessionApp(std::vector<SessionSegment> segments,
                       std::vector<std::unique_ptr<PhasedApp>> apps)
    : segments_{std::move(segments)}, apps_{std::move(apps)}, segment_end_{SimTime::zero()} {
  require(!segments_.empty(), "session needs at least one segment");
  require(segments_.size() == apps_.size(), "session needs one app per segment");
  for (const auto& seg : segments_) {
    require(seg.duration.us() > 0, "session segment duration must be positive");
  }
  for (const auto& app : apps_) require(app != nullptr, "session segment app must not be null");
  segment_end_ = segments_.front().duration;
}

void SessionApp::maybe_advance(SimTime now) {
  while (current_ + 1 < segments_.size() && now >= segment_end_) {
    ++current_;
    segment_end_ += segments_[current_].duration;
  }
}

void SessionApp::update(SimTime now, SimTime dt) {
  maybe_advance(now);
  apps_[current_]->update(now, dt);
}

bool SessionApp::wants_frame(SimTime now) { return apps_[current_]->wants_frame(now); }

render::FrameJob SessionApp::begin_frame(SimTime now) {
  return apps_[current_]->begin_frame(now);
}

BackgroundLoad SessionApp::background() const { return apps_[current_]->background(); }

std::string_view SessionApp::phase_name() const { return apps_[current_]->phase_name(); }

}  // namespace nextgov::workload
