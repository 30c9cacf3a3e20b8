// Property test: RcNetwork's one-pass substep reproduces the two-pass CSR
// reference (tests/oracles/rc_two_pass.hpp) bit for bit, on seeded random
// topologies - isolated nodes, nodes with and without ambient legs, step
// sizes from one substep to many - with powers, step sizes and forced
// temperatures changing between steps.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "oracles/rc_two_pass.hpp"
#include "thermal/rc_network.hpp"

namespace nextgov::thermal {
namespace {

std::shared_ptr<const RcTopology> random_topology(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> node_count{1, 12};
  std::uniform_real_distribution<double> log10_capacity{-3.0, 2.5};
  std::uniform_real_distribution<double> conductance{0.01, 5.0};
  std::bernoulli_distribution ambient_leg{0.4};
  const std::size_t n = node_count(rng);
  std::vector<RcNodeSpec> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back({"n" + std::to_string(i), std::pow(10.0, log10_capacity(rng)),
                     ambient_leg(rng) ? conductance(rng) : 0.0});
  }
  // Each pair is linked with a probability drawn per topology, from none
  // (every node isolated) to dense; a node may end up with no edge at all.
  const double density = std::uniform_real_distribution<double>{0.0, 0.8}(rng);
  std::bernoulli_distribution linked{density};
  std::vector<RcEdgeSpec> edges;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (linked(rng)) edges.push_back({a, b, conductance(rng)});
    }
  }
  return RcTopology::make(std::move(nodes), std::move(edges));
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(RcNetworkOracle, OnePassSubstepMatchesTwoPassBitForBit) {
  std::mt19937_64 rng{20200309};
  std::uniform_real_distribution<double> ambient{-20.0, 45.0};
  std::uniform_real_distribution<double> power{0.0, 6.0};
  std::uniform_real_distribution<double> log10_dt_us{0.0, 5.0};  // 1 us .. 100 ms
  std::uniform_int_distribution<int> action{0, 9};
  std::size_t single_substep_steps = 0;
  std::size_t multi_substep_steps = 0;
  std::size_t isolated_nodes = 0;
  for (int topo = 0; topo < 300; ++topo) {
    const auto topology = random_topology(rng);
    const std::size_t n = topology->node_count();
    for (std::size_t i = 0; i < n; ++i) {
      isolated_nodes += topology->row_ptr()[i] == topology->row_ptr()[i + 1] &&
                        topology->g_ambient()[i] == 0.0;
    }
    const Celsius amb{ambient(rng)};
    RcNetwork net{topology, amb};
    test::TwoPassRcNetwork ref{topology, amb};
    auto dt = SimTime{static_cast<std::int64_t>(std::pow(10.0, log10_dt_us(rng)))};
    for (int s = 0; s < 40; ++s) {
      switch (action(rng)) {
        case 0:  // a new step size: the network re-derives its substep count
          dt = SimTime{static_cast<std::int64_t>(std::pow(10.0, log10_dt_us(rng)))};
          break;
        case 1: {  // session reset
          const Celsius t{ambient(rng)};
          net.set_all_temperatures(t);
          ref.set_all_temperatures(t);
          break;
        }
        default: {
          const NodeId id = std::uniform_int_distribution<NodeId>{0, n - 1}(rng);
          const Watts p{power(rng)};
          net.set_power(id, p);
          ref.set_power(id, p);
        }
      }
      (topology->substeps_for(dt.seconds()) == 1 ? single_substep_steps : multi_substep_steps)++;
      net.step(dt);
      ref.step(dt);
      ASSERT_TRUE(same_bits(net.temperatures_raw(), ref.temperatures_raw()))
          << "topology " << topo << ", step " << s << ", dt " << dt.us() << " us, " << n
          << " nodes";
    }
  }
  // The seeded draw covers what the property is about.
  EXPECT_GT(single_substep_steps, 1000u);
  EXPECT_GT(multi_substep_steps, 1000u);
  EXPECT_GT(isolated_nodes, 10u);
}

}  // namespace
}  // namespace nextgov::thermal
