// Tests of the RC network equilibrium oracle (oracles/rc_steady_state.hpp)
// on networks whose equilibrium is known in closed form.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "oracles/rc_steady_state.hpp"

namespace nextgov::thermal {
namespace {

TEST(RcNetwork, SingleNodeSteadyStateIsOhmsLaw) {
  // T = T_amb + P / G.
  const auto topology = RcTopology::make({{"n", 2.0, 0.5}}, {});
  const double power[] = {3.0};
  const auto ss = test::steady_state(*topology, power, Celsius{21.0});
  EXPECT_NEAR(ss[0].value(), 21.0 + 3.0 / 0.5, 1e-9);
}

TEST(RcNetwork, SteadyStateRequiresAmbientPath) {
  const auto topology = RcTopology::make({{"a", 1.0, 0.0}, {"b", 1.0, 0.0}}, {{0, 1, 0.5}});
  const double power[] = {1.0, 0.0};
  EXPECT_THROW((void)test::steady_state(*topology, power, Celsius{21.0}), ConfigError);
}

}  // namespace
}  // namespace nextgov::thermal
