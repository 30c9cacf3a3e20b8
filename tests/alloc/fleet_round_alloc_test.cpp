// Allocation pin for the fleet server's round: a round holds what changed,
// not a full table per trainee. Each trainee is turned into its delta as
// soon as its training cell finishes, so with one worker a round's peak
// above the state it starts from is a few full tables - the warm base, the
// trainee's table and its copy, the new aggregate - whatever the fleet
// size. Counted by the operator new of counting_new.hpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "counting_new.hpp"
#include "sim/fleet_server.hpp"

namespace nextgov::sim {
namespace {

/// The most one round may allocate above the bytes live before it, as a
/// multiple of one full table (a copy of the global aggregate): about 5x
/// here at 4 and at 16 devices. Holding every trainee's full table until
/// the whole plan had trained peaked at 7.8x and 19.8x.
constexpr std::uint64_t kRoundFactor = 7;
/// Device-rounds of training before the counted round. Both fleets get the
/// same experience (16 warm rounds of 4 devices, 4 of 16), so their global
/// tables, and with them a round's peak, come out about the same size.
constexpr std::size_t kWarmDeviceRounds = 64;

struct RoundPeak {
  std::uint64_t table_bytes{0};  ///< heap of one copy of the global table
  std::uint64_t peak_bytes{0};   ///< one round's peak above the bytes live before it
};

/// A calm fleet of `devices` (every device trains and uploads every round)
/// after kWarmDeviceRounds / devices rounds, then one counted round.
RoundPeak round_peak(std::size_t devices) {
  FleetServerOptions options;
  options.devices = devices;
  options.round_duration = SimTime::from_seconds(10.0);
  options.round_deadline = SimTime::from_seconds(30.0);
  options.episode_length = SimTime::from_seconds(10.0);
  FleetServer server{workload::AppId::kFacebook, options, {.workers = 1}};
  server.run_rounds(kWarmDeviceRounds / devices);
  RoundPeak out;
  if (server.global() == nullptr) return out;
  {
    const std::uint64_t before = test::live_bytes();
    const rl::QTable copy = *server.global();
    out.table_bytes = test::live_bytes() - before;
  }
  const std::uint64_t before = test::live_bytes();
  test::reset_peak_bytes();
  server.run_round();
  out.peak_bytes = test::peak_bytes() - before;
  return out;
}

TEST(FleetRoundAllocations, RoundPeakDoesNotGrowWithTheFleet) {
  const RoundPeak small = round_peak(4);
  const RoundPeak large = round_peak(16);
  ASSERT_GT(small.table_bytes, 0u);
  ASSERT_GT(large.table_bytes, 0u);
  RecordProperty("table_bytes_4_devices", std::to_string(small.table_bytes));
  RecordProperty("round_peak_bytes_4_devices", std::to_string(small.peak_bytes));
  RecordProperty("table_bytes_16_devices", std::to_string(large.table_bytes));
  RecordProperty("round_peak_bytes_16_devices", std::to_string(large.peak_bytes));
  for (const RoundPeak& p : {small, large}) {
    EXPECT_LT(p.peak_bytes, kRoundFactor * p.table_bytes)
        << "a round peaked at " << p.peak_bytes << " B for a " << p.table_bytes << " B table ("
        << static_cast<double>(p.peak_bytes) / static_cast<double>(p.table_bytes) << "x)";
  }
  EXPECT_LT(2 * large.peak_bytes, 3 * small.peak_bytes)
      << "16 devices peaked at " << large.peak_bytes << " B, 4 devices at " << small.peak_bytes
      << " B";
}

}  // namespace
}  // namespace nextgov::sim
