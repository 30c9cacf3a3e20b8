// Regression harness for the optimized RcNetwork solver: the precomputed
// CSR/conductance-sum fast path must reproduce the original edge-list
// sub-stepped Euler within 1e-9 C over representative horizons.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "oracles/rc_steady_state.hpp"
#include "thermal/rc_network.hpp"

namespace nextgov::thermal {
namespace {

/// Reference implementation: the pre-optimization solver, kept verbatim
/// (edge-list flux accumulation, stability bound recomputed every call,
/// division by capacity).
class ReferenceRcNetwork {
 public:
  explicit ReferenceRcNetwork(double ambient_c) : ambient_c_{ambient_c} {}

  std::size_t add_node(double capacity, double g_ambient = 0.0) {
    nodes_.push_back({capacity, g_ambient, ambient_c_, 0.0});
    return nodes_.size() - 1;
  }
  void connect(std::size_t a, std::size_t b, double g) { edges_.push_back({a, b, g}); }
  void set_power(std::size_t id, double w) { nodes_[id].power_w = w; }
  [[nodiscard]] double temperature(std::size_t id) const { return nodes_[id].temp_c; }

  double max_stable_dt_seconds() const {
    double worst = 1e9;
    std::vector<double> g_total(nodes_.size(), 0.0);
    for (std::size_t i = 0; i < nodes_.size(); ++i) g_total[i] = nodes_[i].g_ambient;
    for (const auto& e : edges_) {
      g_total[e.a] += e.g;
      g_total[e.b] += e.g;
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (g_total[i] > 0.0) worst = std::min(worst, nodes_[i].capacity / g_total[i]);
    }
    return 0.5 * worst;
  }

  void step(double total_s) {
    const double dt_max = max_stable_dt_seconds();
    const auto substeps =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(total_s / dt_max)));
    const double dt_sub = total_s / static_cast<double>(substeps);
    std::vector<double> flux(nodes_.size(), 0.0);
    for (std::size_t k = 0; k < substeps; ++k) {
      for (std::size_t i = 0; i < nodes_.size(); ++i) {
        flux[i] = nodes_[i].power_w + nodes_[i].g_ambient * (ambient_c_ - nodes_[i].temp_c);
      }
      for (const auto& e : edges_) {
        const double q = e.g * (nodes_[e.b].temp_c - nodes_[e.a].temp_c);
        flux[e.a] += q;
        flux[e.b] -= q;
      }
      for (std::size_t i = 0; i < nodes_.size(); ++i) {
        nodes_[i].temp_c += dt_sub * flux[i] / nodes_[i].capacity;
      }
    }
  }

 private:
  struct Node {
    double capacity;
    double g_ambient;
    double temp_c;
    double power_w;
  };
  struct Edge {
    std::size_t a;
    std::size_t b;
    double g;
  };
  double ambient_c_;
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
};

TEST(RcNetworkRegression, Note9ShapedTopologyMatchesReferenceEulerWithin1e9) {
  // Drive the optimized solver and the reference solver over a Note9-shaped
  // topology (three fast junction nodes, a board, battery and skin with
  // ambient legs) with the same time-varying power schedule at the engine's
  // 1 ms step for 60 simulated seconds, comparing every node every second.
  ReferenceRcNetwork ref{21.0};
  const NodeId big = 0;
  const NodeId little = 1;
  const NodeId gpu = 2;
  const NodeId board = 3;
  const NodeId battery = 4;
  const NodeId skin = 5;
  std::vector<RcEdgeSpec> edges;
  const std::size_t rbig = ref.add_node(2.5);
  const std::size_t rlittle = ref.add_node(2.0);
  const std::size_t rgpu = ref.add_node(2.2);
  const std::size_t rboard = ref.add_node(45.0);
  const std::size_t rbattery = ref.add_node(180.0, 0.35);
  const std::size_t rskin = ref.add_node(60.0, 1.1);
  const auto link = [&](NodeId a, NodeId b, std::size_t ra, std::size_t rb, double g) {
    edges.push_back(RcEdgeSpec{a, b, g});
    ref.connect(ra, rb, g);
  };
  link(big, board, rbig, rboard, 1.8);
  link(little, board, rlittle, rboard, 1.5);
  link(gpu, board, rgpu, rboard, 1.6);
  link(board, battery, rboard, rbattery, 0.9);
  link(board, skin, rboard, rskin, 1.4);
  link(battery, skin, rbattery, rskin, 0.7);
  RcNetwork opt{RcTopology::make({{"big", 2.5, 0.0},
                                  {"little", 2.0, 0.0},
                                  {"gpu", 2.2, 0.0},
                                  {"board", 45.0, 0.0},
                                  {"battery", 180.0, 0.35},
                                  {"skin", 60.0, 1.1}},
                                 std::move(edges)),
                Celsius{21.0}};

  const SimTime dt = SimTime::from_ms(1);
  for (int step = 0; step < 60000; ++step) {
    // Time-varying power: bursts + decay, exercising transients.
    const double t = step * 1e-3;
    const double p_big = 2.0 + 1.5 * std::sin(t * 0.8) + (step % 5000 < 1000 ? 2.0 : 0.0);
    const double p_gpu = 1.0 + std::cos(t * 0.3);
    opt.set_power(big, Watts{p_big});
    opt.set_power(gpu, Watts{p_gpu});
    opt.set_power(skin, Watts{1.0});
    ref.set_power(rbig, p_big);
    ref.set_power(rgpu, p_gpu);
    ref.set_power(rskin, 1.0);
    opt.step(dt);
    ref.step(1e-3);
    if (step % 1000 == 999) {
      EXPECT_NEAR(opt.temperature(big).value(), ref.temperature(rbig), 1e-9) << "t=" << t;
      EXPECT_NEAR(opt.temperature(little).value(), ref.temperature(rlittle), 1e-9);
      EXPECT_NEAR(opt.temperature(gpu).value(), ref.temperature(rgpu), 1e-9);
      EXPECT_NEAR(opt.temperature(board).value(), ref.temperature(rboard), 1e-9);
      EXPECT_NEAR(opt.temperature(battery).value(), ref.temperature(rbattery), 1e-9);
      EXPECT_NEAR(opt.temperature(skin).value(), ref.temperature(rskin), 1e-9);
    }
  }
}

TEST(RcNetworkRegression, SteadyStateMatchesTransientAfterTopologyMutation) {
  // Each topology precomputes its own solver layout: a topology grown from
  // another one's specs must settle to the grown equilibrium, not to the
  // one its source network settles to.
  const NodeId a = 0;
  const NodeId b = 1;
  const auto small = RcTopology::make({{"a", 1.0, 0.5}}, {});
  const double small_power[] = {1.0};
  const auto ss1 = test::steady_state(*small, small_power, Celsius{21.0});
  EXPECT_NEAR(ss1[a].value(), 21.0 + 2.0, 1e-9);

  std::vector<RcNodeSpec> nodes = small->nodes();
  nodes.push_back(RcNodeSpec{"b", 2.0, 0.5});
  const auto grown = RcTopology::make(std::move(nodes), {{a, b, 1.0}});
  RcNetwork net{grown, Celsius{21.0}};
  net.set_power(a, Watts{1.0});
  const double power[] = {1.0, 0.0};
  const auto ss2 = test::steady_state(*grown, power, Celsius{21.0});
  // New equilibrium: solve the 2x2 system by hand.
  //   a: 1 + 0.5*(21-Ta) + 1*(Tb-Ta) = 0 ; b: 0.5*(21-Tb) + 1*(Ta-Tb) = 0
  EXPECT_NEAR(ss2[b].value(), (0.5 * 21.0 + ss2[a].value()) / 1.5, 1e-9);
  for (int i = 0; i < 400; ++i) net.step(SimTime::from_seconds(1.0));
  EXPECT_NEAR(net.temperature(a).value(), ss2[a].value(), 1e-3);
  EXPECT_NEAR(net.temperature(b).value(), ss2[b].value(), 1e-3);
}

TEST(RcNetworkRegression, CachedSubstepCountAdaptsToStepSize) {
  // Alternating step sizes must not reuse a stale sub-step count: a fast
  // node (tau = 5 ms) stepped at 1 ms then 10 s then 1 ms again stays
  // stable and lands on the analytic equilibrium.
  RcNetwork net{RcTopology::make({{"fast", 0.01, 2.0}}, {}), Celsius{21.0}};
  const NodeId n = 0;
  net.set_power(n, Watts{1.0});
  for (int i = 0; i < 100; ++i) net.step(SimTime::from_ms(1));
  net.step(SimTime::from_seconds(10.0));
  for (int i = 0; i < 100; ++i) net.step(SimTime::from_ms(1));
  EXPECT_NEAR(net.temperature(n).value(), 21.5, 1e-6);
  EXPECT_FALSE(std::isnan(net.temperature(n).value()));
}

}  // namespace
}  // namespace nextgov::thermal
