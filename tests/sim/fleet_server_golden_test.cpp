// Golden test for the fleet server's crash contract (the PR's acceptance
// bar): kill -9 at *any* round boundary followed by a restart must produce
// final Q-tables byte-identical to a server that never died - with a
// departed-mid-round device AND a straggling device active in the same
// run, so the recovery path is proven against the full churn machinery
// (lease expiry, late carry-over, retry/backoff), not just a calm fleet.
// The CI crash-recovery smoke (examples/fleet_serverd.cpp) exercises the
// same contract end to end through real signals and the filesystem. The
// FleetResumeGolden tests hold a calm fleet (synchronous FedAvg) to the
// same bar - down to the bytes of every ring entry - and pin the ring
// entries themselves as canonical bytes: RingEntryBytesArePinned holds a
// churning delta-upload fleet's ring slots and upload blobs to fixed sizes
// and digests, so no writer change moves a persisted or wire byte unnoticed.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "sim/fleet.hpp"
#include "sim/fleet_server.hpp"
#include "temp_path.hpp"

namespace nextgov::sim {
namespace {

constexpr std::size_t kRounds = 4;

/// Churny-but-fast geometry. The churn rates/seed are tuned so the
/// reference run provably contains at least one mid-round departure and at
/// least one straggler carry-over (asserted below - if a future engine
/// change shifts the draws, the assert says to retune rather than letting
/// the test silently weaken).
FleetServerOptions golden_server(const std::string& prefix) {
  FleetServerOptions options;
  options.devices = 4;
  options.round_duration = SimTime::from_seconds(20.0);
  options.round_deadline = SimTime::from_seconds(40.0);
  options.episode_length = SimTime::from_seconds(10.0);
  options.heartbeat_period = SimTime::from_seconds(2.0);
  options.lease_timeout = SimTime::from_seconds(5.0);
  options.upload_latency = SimTime::from_seconds(1.0);
  options.retry_backoff = SimTime::from_seconds(2.0);
  options.base_seed = 2020;
  options.churn.depart_rate = 0.25;
  options.churn.straggle_rate = 0.3;
  options.churn.upload_fail_rate = 0.3;
  options.churn.rejoin_after_rounds = 1;
  options.snapshot_ring = 3;
  options.snapshot_prefix = prefix;
  return options;
}

std::string ring_prefix(const std::string& name) {
  return test::unique_temp_path("nextgov_fsrv_golden_" + name);
}

std::vector<std::uint8_t> canonical_bytes(const rl::QTable& table) {
  ByteWriter out;
  table.serialize(out);
  return out.data();
}

/// The calm fleet: no churn, every device uploads every round.
FleetServerOptions calm_server(const std::string& prefix) {
  FleetServerOptions options = golden_server(prefix);
  options.churn = {};
  options.snapshot_ring = 2;
  return options;
}

std::vector<char> read_all(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>{std::istreambuf_iterator<char>{in}, {}};
}

TEST(FleetServerGolden, KillNineAtEveryBoundaryResumesBitIdentically) {
  // The uninterrupted reference.
  const FleetServerOptions reference_options = golden_server(ring_prefix("ref"));
  FleetServer reference{workload::AppId::kFacebook, reference_options, {.workers = 2}};
  std::size_t departures = 0;
  std::size_t carried = 0;
  std::size_t late = 0;
  reference.run_rounds(kRounds, [&](const FleetServerRoundStats& rs) {
    departures += rs.departures;
    carried += rs.carried_late;
    late += rs.late_merged;
  });
  ASSERT_NE(reference.global(), nullptr);
  const std::vector<std::uint8_t> want = canonical_bytes(*reference.global());
  // The acceptance criterion demands both churn modes in the same run.
  ASSERT_GT(departures, 0u) << "retune churn seed: no device departed mid-round";
  ASSERT_GT(carried, 0u) << "retune churn seed: no straggler crossed a deadline";
  ASSERT_GT(late, 0u) << "retune churn seed: no late upload ever merged";

  // Kill at every boundary k (destroying the server without drain() is the
  // in-process kill -9: the ring on disk is all that survives), restart,
  // finish, compare bytes.
  for (std::size_t k = 0; k <= kRounds; ++k) {
    SCOPED_TRACE("killed after round " + std::to_string(k));
    const FleetServerOptions options =
        golden_server(ring_prefix("kill" + std::to_string(k)));
    {
      FleetServer doomed{workload::AppId::kFacebook, options, {.workers = 2}};
      doomed.run_rounds(k);
    }
    FleetServer resumed{workload::AppId::kFacebook, options, {.workers = 2}};
    EXPECT_EQ(resumed.restored(), k > 0);
    ASSERT_EQ(resumed.round(), k);
    resumed.run_rounds(kRounds - k);
    ASSERT_NE(resumed.global(), nullptr);
    EXPECT_EQ(canonical_bytes(*resumed.global()), want);
    EXPECT_EQ(resumed.stats().uploads_accepted, reference.stats().uploads_accepted);
    EXPECT_EQ(resumed.stats().departures, reference.stats().departures);
    EXPECT_EQ(resumed.stats().total_decisions, reference.stats().total_decisions);
  }
}

TEST(FleetResumeGolden, KilledAtRoundKResumesBitIdentically) {
  // A calm fleet killed after round 2 and restarted on its ring finishes on
  // a global table equal to the uninterrupted run's by exact operator== and
  // as canonical bytes, and leaves every ring entry byte-identical to the
  // uninterrupted server's ring.
  const FleetServerOptions reference_options = calm_server(ring_prefix("calm_ref"));
  FleetServer reference{workload::AppId::kFacebook, reference_options, {.workers = 2}};
  reference.run_rounds(kRounds);
  ASSERT_NE(reference.global(), nullptr);

  const FleetServerOptions options = calm_server(ring_prefix("calm_kill"));
  {
    FleetServer doomed{workload::AppId::kFacebook, options, {.workers = 2}};
    doomed.run_rounds(2);
  }  // destroyed without drain(): kill -9
  FleetServer resumed{workload::AppId::kFacebook, options, {.workers = 2}};
  ASSERT_TRUE(resumed.restored());
  ASSERT_EQ(resumed.round(), 2u);
  resumed.run_rounds(kRounds - 2);
  ASSERT_NE(resumed.global(), nullptr);
  EXPECT_TRUE(*resumed.global() == *reference.global());
  EXPECT_EQ(canonical_bytes(*resumed.global()), canonical_bytes(*reference.global()));
  EXPECT_EQ(resumed.stats().total_decisions, reference.stats().total_decisions);
  EXPECT_EQ(resumed.stats().uploads_accepted, reference.stats().uploads_accepted);
  for (std::size_t slot = 0; slot < options.snapshot_ring; ++slot) {
    SCOPED_TRACE("ring slot " + std::to_string(slot));
    const std::vector<char> want =
        read_all(reference_options.snapshot_prefix + "." + std::to_string(slot));
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(read_all(options.snapshot_prefix + "." + std::to_string(slot)), want);
  }
}

TEST(FleetResumeGolden, EveryCrashPointConvergesOnTheSameBytes) {
  // Whichever boundary a calm delta-upload fleet dies at, restarting lands
  // on the same final bytes and the same wire counters: the round loop has
  // no hidden cross-round state outside the ring, and the delta base is
  // rebuilt from the restored global.
  FleetServerOptions reference_options = calm_server(ring_prefix("sweep_ref"));
  reference_options.delta_uploads = true;
  FleetServer reference{workload::AppId::kFacebook, reference_options, {.workers = 2}};
  reference.run_rounds(kRounds);
  ASSERT_NE(reference.global(), nullptr);
  const std::vector<std::uint8_t> golden = canonical_bytes(*reference.global());
  ASSERT_GT(reference.stats().uploads_delta, 0u);

  for (std::size_t k = 0; k <= kRounds; ++k) {
    SCOPED_TRACE("killed after round " + std::to_string(k));
    FleetServerOptions options = calm_server(ring_prefix("sweep" + std::to_string(k)));
    options.delta_uploads = true;
    {
      FleetServer doomed{workload::AppId::kFacebook, options, {.workers = 2}};
      doomed.run_rounds(k);
    }
    FleetServer resumed{workload::AppId::kFacebook, options, {.workers = 2}};
    EXPECT_EQ(resumed.restored(), k > 0);
    ASSERT_EQ(resumed.round(), k);
    resumed.run_rounds(kRounds - k);
    ASSERT_NE(resumed.global(), nullptr);
    EXPECT_EQ(canonical_bytes(*resumed.global()), golden);
    EXPECT_EQ(resumed.stats().uploads_delta, reference.stats().uploads_delta);
    EXPECT_EQ(resumed.stats().upload_bytes_delta, reference.stats().upload_bytes_delta);
    EXPECT_EQ(resumed.stats().upload_bytes_full, reference.stats().upload_bytes_full);
  }
}

TEST(FleetResumeGolden, SnapshotFileBytesAreDeterministic) {
  // The ring entries are themselves canonical: the same churning fleet
  // trained with one worker and with four writes byte-identical files into
  // every slot (no timestamps, no map-order or pool-order leakage), which is
  // what lets a ring written by one host resume on another.
  const FleetServerOptions one = golden_server(ring_prefix("bytes1"));
  const FleetServerOptions four = golden_server(ring_prefix("bytes4"));
  FleetServer{workload::AppId::kFacebook, one, {.workers = 1}}.run_rounds(kRounds);
  FleetServer{workload::AppId::kFacebook, four, {.workers = 4}}.run_rounds(kRounds);
  for (std::size_t slot = 0; slot < one.snapshot_ring; ++slot) {
    SCOPED_TRACE("ring slot " + std::to_string(slot));
    const std::vector<char> a = read_all(one.snapshot_prefix + "." + std::to_string(slot));
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, read_all(four.snapshot_prefix + "." + std::to_string(slot)));
  }
}

/// FNV-1a, 64-bit: a digest computed here rather than with the library's
/// crc32, so the pins below hold the writer to bytes no library change can
/// redefine.
template <typename Bytes>
std::uint64_t fnv1a64(const Bytes& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto b : bytes) {
    h ^= static_cast<std::uint8_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(FleetResumeGolden, RingEntryBytesArePinned) {
  // The churning fleet (departures, stragglers, damaged uploads) with delta
  // uploads on: every ring slot, a full upload blob and a delta upload blob
  // keep the exact sizes and digests the version-3 writer has always
  // produced. Re-pin only together with a kSnapshotVersion bump.
  FleetServerOptions options = golden_server(ring_prefix("pinned"));
  options.delta_uploads = true;
  FleetServer server{workload::AppId::kFacebook, options, {.workers = 2}};
  server.run_rounds(kRounds);
  ASSERT_GT(server.stats().uploads_delta, 0u);
  ASSERT_GT(server.stats().uploads_retried, 0u);

  struct Pin {
    std::size_t size;
    std::uint64_t fnv;
  };
  const Pin ring[] = {{103471, 0x34fd6d034fea7c68ULL},
                      {117859, 0xa767af3290aabe28ULL},
                      {67463, 0xae99dd6c8b9fb9e3ULL}};
  for (std::size_t slot = 0; slot < options.snapshot_ring; ++slot) {
    SCOPED_TRACE("ring slot " + std::to_string(slot));
    const std::vector<char> bytes =
        read_all(options.snapshot_prefix + "." + std::to_string(slot));
    EXPECT_EQ(bytes.size(), ring[slot].size);
    EXPECT_EQ(fnv1a64(bytes), ring[slot].fnv) << std::hex << fnv1a64(bytes);
  }

  // Upload blobs: the global table in full, and a delta against its
  // warm-start form after a synthetic round touched every fifth state and
  // visited three new ones.
  ASSERT_NE(server.global(), nullptr);
  const rl::QTable& global = *server.global();
  const std::vector<std::uint8_t> full = encode_upload(global, nullptr);
  EXPECT_EQ(full.size(), 29858u);
  EXPECT_EQ(fnv1a64(full), 0x9dd239e3fbdace12ULL) << std::hex << fnv1a64(full);

  const rl::QTable base = strip_visit_mass(global);
  rl::QTable next = base;
  std::vector<rl::StateKey> keys;
  base.for_each_entry([&](const rl::QTable::EntryView& e) { keys.push_back(e.key()); });
  for (std::size_t i = 0; i < keys.size(); i += 5) {
    next.set_q(keys[i], i % next.action_count(), 0.25 * static_cast<double>(i % 17) - 2.0);
    next.record_visit(keys[i]);
  }
  for (rl::StateKey k = 1; k <= 3; ++k) {
    next.set_q(k, 0, -1.5);
    next.record_visit(k);
  }
  bool went_delta = false;
  const std::vector<std::uint8_t> delta = encode_upload(next, &base, &went_delta);
  ASSERT_TRUE(went_delta);
  EXPECT_EQ(delta.size(), 6233u);
  EXPECT_EQ(fnv1a64(delta), 0x264162b64c4fc7f2ULL) << std::hex << fnv1a64(delta);
  EXPECT_TRUE(decode_upload(delta, &base, "pinned delta") == next);
}

}  // namespace
}  // namespace nextgov::sim
