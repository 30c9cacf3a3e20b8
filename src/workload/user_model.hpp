// user_model.hpp - stochastic user-engagement process.
//
// The paper motivates Next with measured usage behaviour: users pick up the
// phone ~52 times/day, 70% of sessions are < 2 min, and *within* a session
// attention alternates between actively interacting (scrolling, tapping)
// and passively looking/reading (Section I, refs [3][4]). We model the
// within-session part as a two-state renewal process:
//
//   ENGAGED  --(lognormal dwell)-->  PASSIVE  --(lognormal dwell)--> ...
//
// Interactive app phases (scrolling, seeking, swiping) are only entered
// while ENGAGED; passive phases (reading, listening, watching) dominate
// otherwise. Parameters differ per app: games hold engagement almost
// continuously, music apps almost never.
#pragma once

#include "common/rng.hpp"
#include "common/sim_time.hpp"

namespace nextgov::workload {

struct UserModelParams {
  double engaged_mean_s{6.0};   ///< mean dwell of an engagement burst
  double engaged_sigma{0.6};    ///< lognormal shape of engagement dwell
  double passive_mean_s{7.0};   ///< mean dwell of a passive interval
  double passive_sigma{0.7};    ///< lognormal shape of passive dwell
  bool start_engaged{true};     ///< sessions usually start with interaction
};

class UserModel {
 public:
  UserModel(UserModelParams params, Rng rng);

  /// Advances the engagement process to `now`.
  void update(SimTime now);

  [[nodiscard]] bool engaged() const noexcept { return engaged_; }

 private:
  void schedule_next(SimTime from);

  UserModelParams params_;
  Rng rng_;
  bool engaged_;
  SimTime next_switch_{SimTime::zero()};
  bool scheduled_{false};
};

}  // namespace nextgov::workload
