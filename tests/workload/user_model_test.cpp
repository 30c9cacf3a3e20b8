// Unit tests for the stochastic user-engagement process.
#include <gtest/gtest.h>

#include "workload/user_model.hpp"
#include "literals.hpp"

namespace nextgov::workload {
namespace {

using namespace nextgov::literals;

TEST(UserModel, StartsEngagedByDefault) {
  UserModel m{UserModelParams{}, Rng{1}};
  m.update(SimTime::zero());
  EXPECT_TRUE(m.engaged());
}

TEST(UserModel, CanStartPassive) {
  UserModelParams p;
  p.start_engaged = false;
  UserModel m{p, Rng{1}};
  m.update(SimTime::zero());
  EXPECT_FALSE(m.engaged());
}

TEST(UserModel, DeterministicForSameSeed) {
  UserModel a{UserModelParams{}, Rng{7}};
  UserModel b{UserModelParams{}, Rng{7}};
  for (int i = 0; i <= 3000; ++i) {
    const SimTime t = SimTime::from_ms(i * 100);
    a.update(t);
    b.update(t);
    ASSERT_EQ(a.engaged(), b.engaged()) << "at t=" << t.seconds();
  }
}

TEST(UserModel, AlternatesStates) {
  UserModel m{UserModelParams{}, Rng{3}};
  int switches = 0;
  bool last = true;
  for (int i = 0; i <= 6000; ++i) {
    m.update(SimTime::from_ms(i * 100));
    if (m.engaged() != last) {
      ++switches;
      last = m.engaged();
    }
  }
  // 600 s with ~6.5 s mean dwell: expect dozens of switches.
  EXPECT_GT(switches, 20);
}

TEST(UserModel, EngagedFractionTracksDwellRatio) {
  UserModelParams p;
  p.engaged_mean_s = 8.0;
  p.passive_mean_s = 2.0;
  UserModel m{p, Rng{11}};
  // Updates every 50 ms, so the share of engaged updates is the share of
  // time spent engaged.
  int engaged = 0;
  for (int i = 0; i < 60000; ++i) {
    m.update(SimTime::from_ms(i * 50));
    engaged += m.engaged() ? 1 : 0;
  }
  // Expected engaged fraction ~ 8/10 = 0.8 over a 50 min horizon.
  EXPECT_NEAR(engaged / 60000.0, 0.8, 0.08);
}

TEST(UserModel, GameLikeParametersStayMostlyEngaged) {
  UserModelParams p;
  p.engaged_mean_s = 40.0;
  p.passive_mean_s = 2.0;
  UserModel m{p, Rng{13}};
  int engaged = 0;
  for (int i = 0; i < 30000; ++i) {
    m.update(SimTime::from_ms(i * 100));
    engaged += m.engaged() ? 1 : 0;
  }
  EXPECT_GT(engaged / 30000.0, 0.85);
}

}  // namespace
}  // namespace nextgov::workload
