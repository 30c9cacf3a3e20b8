// Allocation pin for the fleet server's restore: the heap a restart needs
// follows what its ring entries store - the aggregate, the warm bases and
// one delta per upload - not a full table per device. Counted by the
// operator new of counting_new.hpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "counting_new.hpp"
#include "sim/fleet_server.hpp"
#include "temp_path.hpp"

namespace nextgov::sim {
namespace {

/// The most a restore may allocate at once, as a multiple of the newest
/// ring entry's file size. Restoring reads every slot's container but keeps
/// only its round cursor, then decodes the newest slot alone: its file
/// bytes plus the one state decoded from them, 2.6x the entry here. Holding
/// the best decoded state beside the next slot's decode peaked at 4.3x; a
/// decode that rebuilds every delta-stored upload into a full table, at
/// 11.3x.
constexpr std::uint64_t kRestoreFactor = 3;

TEST(FleetRestoreAllocations, RestorePeakFollowsTheRingEntry) {
  FleetServerOptions options;
  options.devices = 8;
  options.round_duration = SimTime::from_seconds(10.0);
  options.round_deadline = SimTime::from_seconds(30.0);
  options.episode_length = SimTime::from_seconds(10.0);
  options.churn.depart_rate = 0.05;
  options.churn.straggle_rate = 0.1;
  options.snapshot_ring = 3;
  options.snapshot_prefix = test::unique_temp_path("nextgov_restore_alloc");
  FleetServer live{workload::AppId::kFacebook, options, {.workers = 1}};
  live.run_rounds(12);
  ASSERT_NE(live.global(), nullptr);
  const std::uint64_t entry_bytes = std::filesystem::file_size(
      options.snapshot_prefix + "." + std::to_string((live.round() - 1) % options.snapshot_ring));

  const std::uint64_t before = test::live_bytes();
  test::reset_peak_bytes();
  {
    const FleetServer restored{workload::AppId::kFacebook, options, {.workers = 1}};
    ASSERT_TRUE(restored.restored());
    ASSERT_EQ(restored.round(), live.round());
    EXPECT_TRUE(*restored.global() == *live.global());
  }
  const std::uint64_t peak = test::peak_bytes() - before;
  RecordProperty("entry_bytes", std::to_string(entry_bytes));
  RecordProperty("restore_peak_bytes", std::to_string(peak));
  EXPECT_LT(peak, kRestoreFactor * entry_bytes)
      << "restore peaked at " << peak << " B for a " << entry_bytes << " B entry ("
      << static_cast<double>(peak) / static_cast<double>(entry_bytes) << "x)";
}

}  // namespace
}  // namespace nextgov::sim
