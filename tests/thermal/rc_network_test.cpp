// Unit + property tests for the RC thermal network solver, checked against
// the direct equilibrium solve of oracles/rc_steady_state.hpp.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "literals.hpp"
#include "oracles/rc_steady_state.hpp"
#include "thermal/rc_network.hpp"

namespace nextgov::thermal {
namespace {

using namespace nextgov::literals;

/// A network over its own topology; node ids are spec indices.
RcNetwork make_network(Celsius ambient, std::vector<RcNodeSpec> nodes,
                       std::vector<RcEdgeSpec> edges = {}) {
  return RcNetwork{RcTopology::make(std::move(nodes), std::move(edges)), ambient};
}

TEST(RcNetwork, NodesStartAtAmbient) {
  const RcNetwork net = make_network(Celsius{21.0}, {{"n", 1.0, 0.5}});
  const NodeId n = 0;
  EXPECT_DOUBLE_EQ(net.temperature(n).value(), 21.0);
}

TEST(RcNetwork, TransientConvergesToSteadyState) {
  const auto topology = RcTopology::make({{"a", 1.0, 0.0}, {"b", 5.0, 0.4}}, {{0, 1, 0.3}});
  RcNetwork net{topology, Celsius{21.0}};
  const NodeId a = 0;
  const NodeId b = 1;
  net.set_power(a, Watts{2.0});
  const double power[] = {2.0, 0.0};
  const auto ss = test::steady_state(*topology, power, Celsius{21.0});
  for (int i = 0; i < 600; ++i) net.step(SimTime::from_seconds(1.0));
  EXPECT_NEAR(net.temperature(a).value(), ss[a].value(), 0.05);
  EXPECT_NEAR(net.temperature(b).value(), ss[b].value(), 0.05);
}

TEST(RcNetwork, SingleNodeTransientMatchesAnalyticExponential) {
  // T(t) = T_amb + (P/G)(1 - e^(-t G / C)).
  const double c = 4.0;
  const double g = 0.5;
  const double p = 2.0;
  RcNetwork net = make_network(Celsius{0.0}, {{"n", c, g}});
  const NodeId n = 0;
  net.set_power(n, Watts{p});
  // Step at engine granularity (1 ms), far below tau = C/G = 8 s.
  const double t_end = 6.0;
  for (int i = 0; i < 6000; ++i) net.step(SimTime::from_ms(1));
  const double expected = (p / g) * (1.0 - std::exp(-t_end * g / c));
  EXPECT_NEAR(net.temperature(n).value(), expected, 0.05);
}

TEST(RcNetwork, NoPowerMeansStaysAtAmbient) {
  RcNetwork net = make_network(Celsius{25.0}, {{"a", 1.0, 0.2}, {"b", 2.0, 0.0}}, {{0, 1, 0.3}});
  const NodeId a = 0;
  const NodeId b = 1;
  net.step(SimTime::from_seconds(100.0));
  EXPECT_NEAR(net.temperature(a).value(), 25.0, 1e-9);
  EXPECT_NEAR(net.temperature(b).value(), 25.0, 1e-9);
}

TEST(RcNetwork, HeatFlowsFromHotToCold) {
  RcNetwork net =
      make_network(Celsius{21.0}, {{"hot", 1.0, 0.0}, {"cold", 1.0, 1.0}}, {{0, 1, 0.5}});
  const NodeId hot = 0;
  const NodeId cold = 1;
  net.set_power(hot, Watts{1.0});
  net.step(SimTime::from_seconds(50.0));
  EXPECT_GT(net.temperature(hot).value(), net.temperature(cold).value());
  EXPECT_GT(net.temperature(cold).value(), 21.0);
}

TEST(RcNetwork, SuperpositionHoldsAtSteadyState) {
  // The system is linear: T(P1 + P2) = T(P1) + T(P2) - T(0), and forward
  // Euler keeps it linear, so the settled states superpose too.
  const auto build = [] {
    return make_network(Celsius{21.0}, {{"a", 1.0, 0.0}, {"b", 2.0, 0.4}}, {{0, 1, 0.2}});
  };
  auto net1 = build();
  net1.set_power(0, Watts{1.5});
  auto net2 = build();
  net2.set_power(1, Watts{0.7});
  auto net12 = build();
  net12.set_power(0, Watts{1.5});
  net12.set_power(1, Watts{0.7});
  for (RcNetwork* net : {&net1, &net2, &net12}) {
    for (int i = 0; i < 600; ++i) net->step(SimTime::from_seconds(1.0));
  }
  for (NodeId i = 0; i < 2; ++i) {
    EXPECT_NEAR(net12.temperature(i).value(),
                net1.temperature(i).value() + net2.temperature(i).value() - 21.0, 1e-9);
  }
}

TEST(RcNetwork, LargeStepIsStableViaSubstepping) {
  RcNetwork net = make_network(Celsius{21.0}, {{"fast", 0.01, 2.0}});  // tau = 5 ms
  const NodeId n = 0;
  net.set_power(n, Watts{1.0});
  net.step(SimTime::from_seconds(10.0));  // step >> tau
  EXPECT_NEAR(net.temperature(n).value(), 21.5, 1e-6);
  EXPECT_FALSE(std::isnan(net.temperature(n).value()));
}

TEST(RcNetwork, RejectsInvalidTopology) {
  const RcNodeSpec a{"a", 1.0, 0.1};
  const RcNodeSpec b{"b", 1.0, 0.0};
  EXPECT_THROW((void)RcTopology::make({a, {"bad", 0.0, 0.0}}, {}), ConfigError);
  EXPECT_THROW((void)RcTopology::make({a}, {{0, 0, 0.5}}), ConfigError);
  EXPECT_THROW((void)RcTopology::make({a}, {{0, 99, 0.5}}), ConfigError);
  EXPECT_THROW((void)RcTopology::make({a}, {{0, 1, 0.5}}), ConfigError);  // unknown b
  EXPECT_THROW((void)RcTopology::make({a, b}, {{0, 1, 0.0}}), ConfigError);
  EXPECT_THROW((RcNetwork{nullptr, Celsius{21.0}}), ConfigError);
}

TEST(RcNetwork, SetAllTemperaturesForcesState) {
  RcNetwork net = make_network(Celsius{21.0}, {{"a", 1.0, 0.5}});
  const NodeId a = 0;
  net.set_power(a, Watts{2.0});
  net.step(SimTime::from_seconds(30.0));
  net.set_all_temperatures(Celsius{21.0});
  EXPECT_DOUBLE_EQ(net.temperature(a).value(), 21.0);
}

TEST(RcNetwork, AmbientChangeShiftsEquilibrium) {
  // T = T_amb + P / G once the transient (tau = C/G = 2 s) has died out.
  // A network built at 35 C ambient but started at 21 C settles against 35.
  RcNetwork net = make_network(Celsius{35.0}, {{"a", 1.0, 0.5}});
  const NodeId a = 0;
  net.set_all_temperatures(Celsius{21.0});
  net.set_power(a, Watts{1.0});
  for (int i = 0; i < 100; ++i) net.step(SimTime::from_seconds(1.0));
  EXPECT_NEAR(net.temperature(a).value(), 35.0 + 2.0, 1e-9);
}

TEST(RcTopologySharing, TopologyValidatesSpecs) {
  EXPECT_THROW((RcTopology{{{"bad", 0.0, 0.0}}, {}}), ConfigError);
  EXPECT_THROW((RcTopology{{{"a", 1.0, -0.1}}, {}}), ConfigError);
  EXPECT_THROW((RcTopology{{{"a", 1.0, 0.0}}, {{0, 0, 0.5}}}), ConfigError);
  EXPECT_THROW((RcTopology{{{"a", 1.0, 0.0}}, {{0, 7, 0.5}}}), ConfigError);
  EXPECT_THROW((RcTopology{{{"a", 1.0, 0.0}, {"b", 1.0, 0.0}}, {{0, 1, 0.0}}}), ConfigError);
}

}  // namespace
}  // namespace nextgov::thermal
