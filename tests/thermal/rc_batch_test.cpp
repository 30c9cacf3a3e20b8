// Tests for the SoA thermal batch stepper (thermal/rc_batch.hpp) and the
// RcTopology structure/state split: batch stepping must be *bit-identical*
// to per-session RcNetwork stepping, and sessions sharing one topology must
// never leak state into each other.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "thermal/note9_model.hpp"
#include "thermal/rc_batch.hpp"
#include "thermal/rc_network.hpp"

namespace nextgov::thermal {
namespace {

/// Deterministic, session-divergent power schedule: session s, node i,
/// tick t. Mixes sinusoids with per-session phase and periodic bursts so
/// transients differ across sessions.
double schedule_power(std::size_t s, std::size_t node, std::int64_t t) {
  const double phase = 0.37 * static_cast<double>(s + 1);
  const double base = 0.4 + 0.3 * static_cast<double>(node);
  const double wave = std::sin(static_cast<double>(t) * 1e-3 * (0.7 + phase));
  const double burst = (t + static_cast<std::int64_t>(97 * s)) % 4000 < 800 ? 1.5 : 0.0;
  return base + 0.8 * (1.0 + wave) + burst;
}

/// Per-session ambient: 15..35 C spread.
Celsius session_ambient(std::size_t s) {
  return Celsius{15.0 + 2.5 * static_cast<double>(s % 9)};
}

void expect_batch_matches_serial(std::size_t sessions) {
  const auto& topo = note9_topology();
  const std::size_t n = topo->node_count();

  std::vector<RcNetwork> nets;
  nets.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    nets.emplace_back(topo, session_ambient(s));
  }
  RcBatch batch{topo, sessions};
  for (std::size_t s = 0; s < sessions; ++s) batch.load_state(s, nets[s]);

  const SimTime dt = SimTime::from_ms(1);
  for (std::int64_t t = 0; t < 5000; ++t) {
    for (std::size_t s = 0; s < sessions; ++s) {
      for (std::size_t i = 0; i < n; ++i) {
        const Watts p{schedule_power(s, i, t)};
        nets[s].set_power(i, p);
        batch.set_power(s, i, p);
      }
      nets[s].step(dt);
    }
    batch.step(dt);
    if (t % 500 == 499 || t == 4999) {
      for (std::size_t s = 0; s < sessions; ++s) {
        for (std::size_t i = 0; i < n; ++i) {
          // Exact bitwise equality, not EXPECT_NEAR: the batch applies the
          // same arithmetic in the same order per session.
          EXPECT_EQ(batch.temperature(s, i).value(), nets[s].temperature(i).value())
              << "session " << s << " node " << i << " tick " << t;
        }
      }
    }
  }
}

TEST(RcBatch, BitIdenticalToSerialOneSession) { expect_batch_matches_serial(1); }
TEST(RcBatch, BitIdenticalToSerialThreeSessions) { expect_batch_matches_serial(3); }
TEST(RcBatch, BitIdenticalToSerialSeventeenSessions) { expect_batch_matches_serial(17); }

TEST(RcBatch, StoreTemperaturesRoundTripsThroughNetwork) {
  const auto& topo = note9_topology();
  RcNetwork net{topo, Celsius{21.0}};
  RcBatch batch{topo, 2};
  batch.load_state(1, net);
  batch.set_power(1, 0, Watts{3.0});
  batch.step(SimTime::from_seconds(5.0));
  batch.store_temperatures(1, net);
  for (std::size_t i = 0; i < topo->node_count(); ++i) {
    EXPECT_EQ(net.temperature(i).value(), batch.temperature(1, i).value()) << "node " << i;
  }
  EXPECT_GT(net.temperature(0).value(), 21.0);
}

TEST(RcBatch, SessionsAreIndependent) {
  const auto& topo = note9_topology();
  RcBatch batch{topo, 3, Celsius{21.0}};
  batch.set_power(1, 0, Watts{5.0});
  batch.step(SimTime::from_seconds(10.0));
  // Only session 1 was powered; 0 and 2 stay exactly at ambient.
  for (std::size_t i = 0; i < topo->node_count(); ++i) {
    EXPECT_EQ(batch.temperature(0, i).value(), 21.0);
    EXPECT_EQ(batch.temperature(2, i).value(), 21.0);
  }
  EXPECT_GT(batch.temperature(1, 0).value(), 21.0);
}

TEST(RcBatch, PerSessionAmbientFeedsTheSolve) {
  const auto& topo = note9_topology();
  RcBatch batch{topo, 2, Celsius{21.0}};
  batch.set_all_temperatures(1, Celsius{35.0});
  batch.set_ambient(1, Celsius{35.0});
  batch.step(SimTime::from_seconds(100.0));
  // Unpowered sessions settle at their own ambient.
  EXPECT_NEAR(batch.temperature(0, 5).value(), 21.0, 1e-9);
  EXPECT_NEAR(batch.temperature(1, 5).value(), 35.0, 1e-9);
}

TEST(RcBatch, RejectsForeignTopologyAndBadIds) {
  const auto& topo = note9_topology();
  RcBatch batch{topo, 1};
  const RcNetwork foreign{RcTopology::make({{"lone", 1.0, 0.5}}, {}), Celsius{21.0}};
  EXPECT_THROW(batch.load_state(0, foreign), ConfigError);
  EXPECT_THROW(batch.set_power(1, 0, Watts{1.0}), ConfigError);
  EXPECT_THROW(batch.set_power(0, 99, Watts{1.0}), ConfigError);
  EXPECT_THROW((RcBatch{nullptr, 1}), ConfigError);
  EXPECT_THROW((RcBatch{topo, 0}), ConfigError);
}

// --- RcTopology ------------------------------------------------------------

TEST(RcTopologySharing, TopologyValidatesSpecs) {
  EXPECT_THROW((RcTopology{{{"bad", 0.0, 0.0}}, {}}), ConfigError);
  EXPECT_THROW((RcTopology{{{"a", 1.0, -0.1}}, {}}), ConfigError);
  EXPECT_THROW((RcTopology{{{"a", 1.0, 0.0}}, {{0, 0, 0.5}}}), ConfigError);
  EXPECT_THROW((RcTopology{{{"a", 1.0, 0.0}}, {{0, 7, 0.5}}}), ConfigError);
  EXPECT_THROW((RcTopology{{{"a", 1.0, 0.0}, {"b", 1.0, 0.0}}, {{0, 1, 0.0}}}), ConfigError);
}

}  // namespace
}  // namespace nextgov::thermal
