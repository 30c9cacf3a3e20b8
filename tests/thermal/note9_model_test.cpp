// Calibration tests for the Note 9 thermal network (ranges from DESIGN.md);
// equilibria come from the direct solve of oracles/rc_steady_state.hpp.
#include <gtest/gtest.h>

#include <vector>

#include "oracles/rc_steady_state.hpp"
#include "thermal/note9_model.hpp"

namespace nextgov::thermal {
namespace {

TEST(Note9Thermal, HasSixNamedNodes) {
  auto model = make_note9_thermal(Celsius{21.0});
  EXPECT_EQ(model.network.node_count(), 6u);
  EXPECT_EQ(note9_topology()->nodes()[model.nodes.big].name, "big");
  EXPECT_EQ(note9_topology()->nodes()[model.nodes.skin].name, "skin");
  EXPECT_EQ(note9_topology()->nodes()[model.nodes.battery].name, "battery");
}

TEST(Note9Thermal, IdleSteadyStateIsMildlyWarm) {
  // ~1.3 W device floor: big junction should settle around 27-35 C.
  auto model = make_note9_thermal(Celsius{21.0});
  std::vector<double> power(model.network.node_count(), 0.0);
  power[model.nodes.big] = 0.10;
  power[model.nodes.little] = 0.05;
  power[model.nodes.gpu] = 0.05;
  power[model.nodes.skin] = 1.0;
  power[model.nodes.soc_board] = 0.35;
  const auto ss = test::steady_state(*note9_topology(), power, Celsius{21.0});
  EXPECT_GT(ss[model.nodes.big].value(), 24.0);
  EXPECT_LT(ss[model.nodes.big].value(), 36.0);
}

TEST(Note9Thermal, SustainedGameLoadPushesBigInto70to95Band) {
  // Heavy game under schedutil: big ~2.6 W, GPU ~2.2 W, LITTLE ~0.5 W.
  auto model = make_note9_thermal(Celsius{21.0});
  std::vector<double> power(model.network.node_count(), 0.0);
  power[model.nodes.big] = 2.6;
  power[model.nodes.little] = 0.5;
  power[model.nodes.gpu] = 2.2;
  power[model.nodes.skin] = 1.0;
  power[model.nodes.soc_board] = 0.35;
  const auto ss = test::steady_state(*note9_topology(), power, Celsius{21.0});
  EXPECT_GT(ss[model.nodes.big].value(), 70.0);
  EXPECT_LT(ss[model.nodes.big].value(), 100.0);
  // Skin must stay far below the junction (it is what the user touches).
  EXPECT_LT(ss[model.nodes.skin].value(), 50.0);
  EXPECT_GT(ss[model.nodes.big].value(), ss[model.nodes.soc_board].value());
}

TEST(Note9Thermal, JunctionsRespondInSecondsSkinInMinutes) {
  auto model = make_note9_thermal(Celsius{21.0});
  model.network.set_power(model.nodes.big, Watts{2.5});
  model.network.step(SimTime::from_seconds(10.0));
  const double big_10s = model.network.temperature(model.nodes.big).value();
  const double skin_10s = model.network.temperature(model.nodes.skin).value();
  EXPECT_GT(big_10s, 30.0);        // junction already far above ambient
  EXPECT_LT(skin_10s, 23.0);       // chassis barely moved
  model.network.step(SimTime::from_seconds(600.0));
  EXPECT_GT(model.network.temperature(model.nodes.skin).value(), skin_10s + 2.0);
}

TEST(Note9Thermal, BigIsTheHotspotUnderCpuLoad) {
  auto model = make_note9_thermal(Celsius{21.0});
  std::vector<double> power(model.network.node_count(), 0.0);
  power[model.nodes.big] = 2.0;
  power[model.nodes.gpu] = 0.5;
  const auto ss = test::steady_state(*note9_topology(), power, Celsius{21.0});
  EXPECT_GT(ss[model.nodes.big].value(), ss[model.nodes.gpu].value());
  EXPECT_GT(ss[model.nodes.big].value(), ss[model.nodes.little].value());
  EXPECT_GT(ss[model.nodes.big].value(), ss[model.nodes.skin].value());
}

TEST(Note9Thermal, AmbientParameterPropagates) {
  auto cold = make_note9_thermal(Celsius{10.0});
  EXPECT_DOUBLE_EQ(cold.network.temperature(cold.nodes.big).value(), 10.0);
}

}  // namespace
}  // namespace nextgov::thermal
