// Tests for the long-running fleet server (sim/fleet_server.hpp): options
// validation, determinism across worker counts under churn, straggler
// carry-over, retry/loss accounting, lease departure bookkeeping, and the
// snapshot ring (rotation, corrupt-entry quarantine + fallback, the
// newest-first decode, options identity, cold start, the write-failure
// policy, the warm bases a version-4 entry holds). The kill -9 bit-identity contract itself lives in
// tests/sim/fleet_server_golden_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "sim/fleet_server.hpp"
#include "temp_path.hpp"

namespace nextgov::sim {
namespace {

/// Small-but-real server geometry: rounds are fast enough for the unit
/// tier, and the timing windows satisfy validate_fleet_server_options
/// (deadline 40 s > duration 20 s + latency 1 s; duration + lease 5 s fits
/// the deadline).
FleetServerOptions small_server() {
  FleetServerOptions options;
  options.devices = 3;
  options.round_duration = SimTime::from_seconds(20.0);
  options.round_deadline = SimTime::from_seconds(40.0);
  options.episode_length = SimTime::from_seconds(10.0);
  options.heartbeat_period = SimTime::from_seconds(2.0);
  options.lease_timeout = SimTime::from_seconds(5.0);
  options.upload_latency = SimTime::from_seconds(1.0);
  options.retry_backoff = SimTime::from_seconds(2.0);
  options.base_seed = 77;
  return options;
}

std::vector<std::uint8_t> canonical_bytes(const rl::QTable& table) {
  ByteWriter out;
  table.serialize(out);
  return out.data();
}

/// Fresh per-test ring prefix (unique_temp_path removes any stale slots and
/// quarantine files).
std::string ring_prefix(const std::string& name) {
  return test::unique_temp_path("nextgov_fsrv_" + name);
}

TEST(FleetServerOptionsValidation, RejectsDegenerateConfigurations) {
  const auto expect_rejected = [](auto mutate, const char* label) {
    FleetServerOptions options = small_server();
    mutate(options);
    EXPECT_THROW(validate_fleet_server_options(options), ConfigError) << label;
  };
  expect_rejected([](auto& o) { o.devices = 0; }, "devices == 0");
  expect_rejected([](auto& o) { o.round_duration = SimTime::zero(); }, "zero duration");
  expect_rejected([](auto& o) { o.episode_length = SimTime::zero(); }, "zero episode");
  expect_rejected([](auto& o) { o.heartbeat_period = SimTime::zero(); }, "zero heartbeat");
  expect_rejected([](auto& o) { o.lease_timeout = SimTime::from_seconds(1.0); },
                  "lease_timeout < heartbeat_period");
  expect_rejected([](auto& o) { o.retry_backoff = SimTime::zero(); }, "zero backoff");
  expect_rejected([](auto& o) { o.max_upload_attempts = 0; }, "zero attempts");
  expect_rejected([](auto& o) { o.round_deadline = SimTime::from_seconds(20.5); },
                  "deadline leaves no room for a clean upload");
  expect_rejected([](auto& o) { o.lease_timeout = SimTime::from_seconds(25.0); },
                  "lease expiry could cross the round boundary");
  expect_rejected([](auto& o) { o.churn.depart_rate = 1.0; }, "depart_rate == 1");
  expect_rejected([](auto& o) { o.churn.upload_fail_rate = 1.0; }, "fail_rate == 1");
  expect_rejected([](auto& o) { o.churn.rejoin_after_rounds = 0; }, "rejoin == 0");
  expect_rejected([](auto& o) { o.snapshot_ring = 3; }, "ring without prefix");
  EXPECT_NO_THROW(validate_fleet_server_options(small_server()));
}

TEST(FleetServer, CalmFleetReachesFullQuorumEveryRound) {
  FleetServer server{workload::AppId::kFacebook, small_server(), {.workers = 2}};
  std::vector<FleetServerRoundStats> rounds;
  server.run_rounds(2, [&](const FleetServerRoundStats& rs) { rounds.push_back(rs); });
  ASSERT_EQ(rounds.size(), 2u);
  for (const auto& rs : rounds) {
    EXPECT_EQ(rs.training_devices, 3u);
    EXPECT_EQ(rs.quorum, 3u);  // every upload beats the deadline
    EXPECT_EQ(rs.departures, 0u);
    EXPECT_EQ(rs.carried_late, 0u);
    EXPECT_EQ(rs.retries, 0u);
    EXPECT_EQ(rs.lost_uploads, 0u);
    EXPECT_GT(rs.global_states, 0u);
  }
  ASSERT_NE(server.global(), nullptr);
  EXPECT_EQ(server.round(), 2u);
  EXPECT_EQ(server.stats().uploads_accepted, 6u);
  EXPECT_GT(server.stats().total_decisions, 0u);
}

TEST(FleetServer, DeterministicAcrossWorkerCountsUnderChurn) {
  FleetServerOptions options = small_server();
  options.devices = 4;
  options.churn.depart_rate = 0.3;
  options.churn.straggle_rate = 0.3;
  options.churn.upload_fail_rate = 0.4;
  options.churn.rejoin_after_rounds = 1;
  FleetServer serial{workload::AppId::kFacebook, options, {.workers = 1}};
  FleetServer pooled{workload::AppId::kFacebook, options, {.workers = 4}};
  serial.run_rounds(3);
  pooled.run_rounds(3);
  ASSERT_NE(serial.global(), nullptr);
  ASSERT_NE(pooled.global(), nullptr);
  EXPECT_EQ(canonical_bytes(*serial.global()), canonical_bytes(*pooled.global()));
  EXPECT_EQ(serial.stats().uploads_accepted, pooled.stats().uploads_accepted);
  EXPECT_EQ(serial.stats().uploads_retried, pooled.stats().uploads_retried);
  EXPECT_EQ(serial.stats().uploads_lost, pooled.stats().uploads_lost);
  EXPECT_EQ(serial.stats().departures, pooled.stats().departures);
  EXPECT_EQ(serial.stats().late_uploads_merged, pooled.stats().late_uploads_merged);
  EXPECT_EQ(serial.stats().total_decisions, pooled.stats().total_decisions);
}

TEST(FleetServer, UniversalStragglersCarryIntoLaterRounds) {
  // Every device straggles every round: the seeded delay (at least half a
  // deadline) plus training time always overruns the close, so round 0
  // merges nothing and carries all three tables; they land - and merge,
  // staleness-weighted - in later rounds.
  FleetServerOptions options = small_server();
  options.churn.straggle_rate = 1.0;
  FleetServer server{workload::AppId::kFacebook, options, {.workers = 2}};
  std::vector<FleetServerRoundStats> rounds;
  server.run_rounds(3, [&](const FleetServerRoundStats& rs) { rounds.push_back(rs); });
  EXPECT_EQ(rounds[0].quorum, 0u);
  EXPECT_EQ(rounds[0].carried_late, 3u);
  EXPECT_EQ(rounds[0].global_states, 0u);  // nothing arrived: degrade, don't stall
  EXPECT_EQ(server.stats().late_uploads_merged,
            rounds[1].late_merged + rounds[2].late_merged);
  EXPECT_GT(server.stats().late_uploads_merged, 0u);
  ASSERT_NE(server.global(), nullptr);  // late tables did merge eventually
}

TEST(FleetServer, FailedUploadsRetryWithBackoffAndEventuallyDrop) {
  FleetServerOptions options = small_server();
  options.churn.upload_fail_rate = 0.9;
  options.max_upload_attempts = 2;
  FleetServer server{workload::AppId::kFacebook, options, {.workers = 2}};
  server.run_rounds(3);
  // At 90% per-attempt failure and two attempts, retries and exhausted
  // uploads are both statistically certain across 9 uploads; the server
  // must keep serving rounds regardless.
  EXPECT_GT(server.stats().uploads_retried, 0u);
  EXPECT_GT(server.stats().uploads_lost, 0u);
  EXPECT_EQ(server.round(), 3u);
}

TEST(FleetServer, DepartedDevicesSkipTrainingAndRejoin) {
  FleetServerOptions options = small_server();
  options.devices = 6;
  options.churn.depart_rate = 0.5;
  options.churn.rejoin_after_rounds = 1;
  FleetServer server{workload::AppId::kFacebook, options, {.workers = 2}};
  std::vector<FleetServerRoundStats> rounds;
  server.run_rounds(2, [&](const FleetServerRoundStats& rs) { rounds.push_back(rs); });
  // A departing device's training cell is never scheduled: trainees +
  // departures account for every leased device, and only trainees can
  // contribute tables.
  ASSERT_GT(rounds[0].departures, 0u) << "tune seed: churn produced no departure";
  EXPECT_EQ(rounds[0].training_devices + rounds[0].departures, 6u);
  EXPECT_EQ(rounds[0].quorum, rounds[0].training_devices);
  // rejoin_after_rounds = 1: everyone who left round 0 is back for round 1.
  EXPECT_EQ(rounds[1].rejoined, rounds[0].departures);
  EXPECT_EQ(server.stats().departures, rounds[0].departures + rounds[1].departures);
}

TEST(FleetServerRing, RotationKeepsOnlyTheLastKEntries) {
  const std::string prefix = ring_prefix("rotate");
  FleetServerOptions options = small_server();
  options.snapshot_ring = 2;
  options.snapshot_prefix = prefix;
  FleetServer server{workload::AppId::kFacebook, options, {.workers = 2}};
  EXPECT_FALSE(server.restored());
  server.run_rounds(3);
  EXPECT_EQ(server.stats().snapshots_written, 3u);
  // Rounds 1..3 wrote slots 1, 0, 1 - exactly two files, no slot 2.
  EXPECT_TRUE(std::filesystem::exists(prefix + ".0"));
  EXPECT_TRUE(std::filesystem::exists(prefix + ".1"));
  EXPECT_FALSE(std::filesystem::exists(prefix + ".2"));

  // A fresh server restores the *newest* boundary and picks up mid-stream.
  FleetServer resumed{workload::AppId::kFacebook, options, {.workers = 2}};
  EXPECT_TRUE(resumed.restored());
  EXPECT_EQ(resumed.round(), 3u);
  ASSERT_NE(resumed.global(), nullptr);
}

TEST(FleetServerRing, CorruptNewestEntryIsQuarantinedAndOlderOneRestores) {
  const std::string prefix = ring_prefix("quarantine");
  FleetServerOptions options = small_server();
  options.snapshot_ring = 3;
  options.snapshot_prefix = prefix;

  // Reference: an uninterrupted 4-round run.
  FleetServer reference{workload::AppId::kFacebook, options, {.workers = 2}};
  reference.run_rounds(4);
  ASSERT_NE(reference.global(), nullptr);
  const std::vector<std::uint8_t> want = canonical_bytes(*reference.global());

  // Re-run three rounds on a clean ring, then damage the newest entry
  // (round 3 -> slot 0) the way a torn disk would, and replace the oldest
  // (round 1 -> slot 1) with a hostile 12-byte header: magic "NXSS",
  // version 3 and a section count of 0xFFFFFFFF.
  const std::string prefix2 = ring_prefix("quarantine2");
  FleetServerOptions crashed = options;
  crashed.snapshot_prefix = prefix2;
  {
    FleetServer server{workload::AppId::kFacebook, crashed, {.workers = 2}};
    server.run_rounds(3);
  }  // destroyed without drain(): kill -9
  const std::string newest = prefix2 + ".0";
  {
    std::FILE* f = std::fopen(newest.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 40, SEEK_SET);
    const unsigned char evil = 0xee;
    std::fwrite(&evil, 1, 1, f);
    std::fclose(f);
  }
  const std::string hostile = prefix2 + ".1";
  {
    ByteWriter header;
    header.u32(kSnapshotMagic);
    header.u32(3);
    header.u32(0xFFFFFFFFu);
    std::FILE* f = std::fopen(hostile.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(header.data().data(), 1, header.size(), f);
    std::fclose(f);
  }

  // Restore: slot 0 fails CRC and slot 1 fails its framing -> both are
  // quarantined to .corrupt, never thrown out of the constructor; the
  // round-2 boundary in slot 2 is the newest valid entry, and replaying
  // rounds 2-3 from it must converge to the uninterrupted bytes.
  FleetServer resumed{workload::AppId::kFacebook, crashed, {.workers = 2}};
  EXPECT_TRUE(resumed.restored());
  EXPECT_EQ(resumed.round(), 2u);
  EXPECT_EQ(resumed.stats().snapshots_quarantined, 2u);
  EXPECT_FALSE(std::filesystem::exists(newest));
  EXPECT_TRUE(std::filesystem::exists(newest + ".corrupt"));
  EXPECT_FALSE(std::filesystem::exists(hostile));
  EXPECT_TRUE(std::filesystem::exists(hostile + ".corrupt"));
  resumed.run_rounds(2);
  ASSERT_NE(resumed.global(), nullptr);
  EXPECT_EQ(canonical_bytes(*resumed.global()), want);
}

/// Writes `snap` as a ring entry of a server under `options`: a valid
/// container (SnapshotWriter computes every section CRC), whatever state
/// it holds.
void write_ring_entry(const std::string& path, const FleetServerOptions& options,
                      const FleetSnapshot& snap) {
  SnapshotWriter out;
  encode_fleet_server_options(options, out.section("fleet_server_options"));
  write_fleet_state_sections(out, snap);
  out.write_file(path);
}

TEST(FleetServerRing, UndecodableSlotIsQuarantinedAndOlderOneRestores) {
  // Ring entries whose CRCs all pass but whose state cannot be resumed -
  // sections that do not decode, a lease/upload count that is not the
  // server's device count, a pending upload addressed past the last
  // device, an upload from a round the boundary has not reached - are as
  // unusable as CRC damage: quarantined to .corrupt, never thrown out of,
  // aborting or corrupting the constructor. Each claims a newer boundary
  // than the one valid entry, which must still restore.
  const std::string prefix = ring_prefix("undecodable");
  FleetServerOptions options = small_server();
  options.snapshot_ring = 5;
  options.snapshot_prefix = prefix;

  FleetServerOptions straight_options = options;
  straight_options.snapshot_prefix = ring_prefix("undecodable_ref");
  FleetServer straight{workload::AppId::kFacebook, straight_options, {.workers = 2}};
  straight.run_rounds(3);
  ASSERT_NE(straight.global(), nullptr);

  {
    FleetServer server{workload::AppId::kFacebook, options, {.workers = 2}};
    server.run_rounds(1);
  }  // destroyed without drain(): the round-1 boundary sits in slot 1
  const FleetSnapshot good =
      read_fleet_state_sections(SnapshotReader::from_file(prefix + ".1"));
  ASSERT_EQ(good.next_round, 1u);
  ASSERT_TRUE(good.uploads[0].has_value());

  const std::string undecodable = prefix + ".2";
  {
    SnapshotWriter out;
    encode_fleet_server_options(options, out.section("fleet_server_options"));
    out.section("fleet_state").u64(4);  // a round cursor, then nothing
    out.section("server_state").u32(0xFFFFFFFFu);
    out.write_file(undecodable);
  }
  const std::string extra_lease = prefix + ".3";
  {
    FleetSnapshot snap = good;
    snap.next_round = 3;
    snap.leases.push_back(DeviceLease{});
    write_ring_entry(extra_lease, options, snap);
  }
  const std::string stray_pending = prefix + ".4";
  {
    FleetSnapshot snap = good;
    snap.next_round = 2;
    snap.pending_uploads.push_back(
        PendingUpload{options.devices + 5, 0, 0, 0, good.uploads[0]->held});
    write_ring_entry(stray_pending, options, snap);
  }
  const std::string future_upload = prefix + ".0";
  {
    FleetSnapshot snap = good;
    snap.next_round = 2;
    snap.uploads[1]->round = 7;
    write_ring_entry(future_upload, options, snap);
  }

  FleetServer resumed{workload::AppId::kFacebook, options, {.workers = 2}};
  EXPECT_TRUE(resumed.restored());
  EXPECT_EQ(resumed.round(), 1u);
  EXPECT_EQ(resumed.stats().snapshots_quarantined, 4u);
  for (const std::string& bad : {undecodable, extra_lease, stray_pending, future_upload}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(std::filesystem::exists(bad));
    EXPECT_TRUE(std::filesystem::exists(bad + ".corrupt"));
  }
  EXPECT_TRUE(std::filesystem::exists(prefix + ".1"));
  resumed.run_rounds(2);
  ASSERT_NE(resumed.global(), nullptr);
  EXPECT_EQ(canonical_bytes(*resumed.global()), canonical_bytes(*straight.global()));
}

/// Writes a ring entry with a valid container and options identity whose
/// "fleet_state" section holds only a round cursor of `cursor_bytes` bytes
/// (8 is a whole u64, fewer a truncated one), so its state never decodes.
void write_cursor_only_entry(const std::string& path, const FleetServerOptions& options,
                             std::uint64_t cursor, std::size_t cursor_bytes) {
  SnapshotWriter out;
  encode_fleet_server_options(options, out.section("fleet_server_options"));
  ByteWriter& state = out.section("fleet_state");
  for (std::size_t i = 0; i < cursor_bytes; ++i) {
    state.u8(static_cast<std::uint8_t>(cursor >> (8 * i)));
  }
  out.write_file(path);
}

TEST(FleetServerRing, NewerUndecodableSlotIsQuarantinedAndCounted) {
  // The restore decodes newest-first: a slot whose round cursor claims a
  // newer boundary but whose state does not decode is tried first,
  // quarantined and counted, and the older good slot restores.
  const std::string prefix = ring_prefix("newer_undecodable");
  FleetServerOptions options = small_server();
  options.snapshot_ring = 3;
  options.snapshot_prefix = prefix;
  {
    FleetServer server{workload::AppId::kFacebook, options, {.workers = 1}};
    server.run_rounds(1);
  }  // the round-1 boundary sits in slot 1
  write_cursor_only_entry(prefix + ".2", options, 2, 8);

  FleetServer resumed{workload::AppId::kFacebook, options, {.workers = 1}};
  EXPECT_TRUE(resumed.restored());
  EXPECT_EQ(resumed.round(), 1u);
  EXPECT_EQ(resumed.stats().snapshots_quarantined, 1u);
  EXPECT_FALSE(std::filesystem::exists(prefix + ".2"));
  EXPECT_TRUE(std::filesystem::exists(prefix + ".2.corrupt"));
  EXPECT_TRUE(std::filesystem::exists(prefix + ".1"));
}

TEST(FleetServerRing, OlderUndecodableSlotIsLeftInPlace) {
  // Once the newest slot restores, older slots are never decoded: one whose
  // state would not decode stays in place, uncounted. Every slot's
  // container and round cursor are still read, so a cursor shorter than 8
  // bytes is quarantined and counted whatever its age.
  const std::string prefix = ring_prefix("older_undecodable");
  FleetServerOptions options = small_server();
  options.snapshot_ring = 4;
  options.snapshot_prefix = prefix;
  {
    FleetServer server{workload::AppId::kFacebook, options, {.workers = 1}};
    server.run_rounds(2);
  }  // boundaries 1 and 2 sit in slots 1 and 2
  const std::string undecodable = prefix + ".3";
  write_cursor_only_entry(undecodable, options, 1, 8);
  const std::string short_cursor = prefix + ".0";
  write_cursor_only_entry(short_cursor, options, 0, 7);

  FleetServer resumed{workload::AppId::kFacebook, options, {.workers = 1}};
  EXPECT_TRUE(resumed.restored());
  EXPECT_EQ(resumed.round(), 2u);
  EXPECT_EQ(resumed.stats().snapshots_quarantined, 1u);
  EXPECT_TRUE(std::filesystem::exists(undecodable));
  EXPECT_FALSE(std::filesystem::exists(undecodable + ".corrupt"));
  EXPECT_FALSE(std::filesystem::exists(short_cursor));
  EXPECT_TRUE(std::filesystem::exists(short_cursor + ".corrupt"));
}

TEST(FleetServerRing, RoundCursorPastTheClockIsQuarantined) {
  // A round cursor that decodes but whose round start lies past the
  // simulated clock's int64 microseconds would overflow the round's time
  // arithmetic: the entry cannot be resumed, so it is quarantined like any
  // other such entry and the server starts cold.
  const std::string prefix = ring_prefix("far_round");
  FleetServerOptions options = small_server();
  options.snapshot_ring = 1;
  options.snapshot_prefix = prefix;
  {
    FleetServer server{workload::AppId::kFacebook, options, {.workers = 2}};
    server.run_rounds(1);
  }
  FleetSnapshot snap = read_fleet_state_sections(SnapshotReader::from_file(prefix + ".0"));
  snap.next_round = std::size_t{1} << 62;
  write_ring_entry(prefix + ".0", options, snap);
  FleetServer resumed{workload::AppId::kFacebook, options, {.workers = 2}};
  EXPECT_FALSE(resumed.restored());
  EXPECT_EQ(resumed.stats().snapshots_quarantined, 1u);
  EXPECT_TRUE(std::filesystem::exists(prefix + ".0.corrupt"));
  resumed.run_round();
  EXPECT_EQ(resumed.round(), 1u);
}

TEST(FleetServerRing, DifferentOptionsRefuseToResume) {
  const std::string prefix = ring_prefix("mismatch");
  FleetServerOptions options = small_server();
  options.snapshot_ring = 2;
  options.snapshot_prefix = prefix;
  {
    FleetServer server{workload::AppId::kFacebook, options, {.workers = 2}};
    server.run_rounds(1);
  }
  FleetServerOptions different = options;
  different.base_seed = options.base_seed + 1;
  EXPECT_THROW((FleetServer{workload::AppId::kFacebook, different, {.workers = 2}}),
               SerializeError);
  // The healthy file must NOT have been quarantined by the refusal.
  EXPECT_TRUE(std::filesystem::exists(prefix + ".1"));
}

TEST(FleetServerRing, EmptyRingColdStartsAtRoundZero) {
  FleetServerOptions options = small_server();
  options.snapshot_ring = 4;
  options.snapshot_prefix = ring_prefix("cold");
  FleetServer server{workload::AppId::kFacebook, options, {.workers = 2}};
  EXPECT_FALSE(server.restored());
  EXPECT_EQ(server.round(), 0u);
  EXPECT_EQ(server.global(), nullptr);
}

TEST(FleetServerRing, DrainWritesTheCurrentBoundary) {
  const std::string prefix = ring_prefix("drain");
  FleetServerOptions options = small_server();
  options.snapshot_ring = 4;
  options.snapshot_prefix = prefix;
  FleetServer server{workload::AppId::kFacebook, options, {.workers = 2}};
  server.run_rounds(1);
  server.drain();  // SIGINT/SIGTERM path: idempotent boundary snapshot
  EXPECT_EQ(server.stats().snapshots_written, 2u);
  FleetServer resumed{workload::AppId::kFacebook, options, {.workers = 2}};
  EXPECT_TRUE(resumed.restored());
  EXPECT_EQ(resumed.round(), 1u);
}

TEST(FleetServerRing, FailedRingWriteIsSkippedAndServingContinues) {
  // The ring's write-failure policy. `<prefix>.2.tmp` is a symlink to
  // /dev/full, so the round-2 boundary's write fails with ENOSPC: the round
  // still completes, the slot is skipped and counted, and drain() - the
  // shutdown path - throws the same failure. A restart resumes from the
  // newest boundary that was fully written and rewrites the ring and the
  // global table byte for byte as a server that never failed.
  const std::string prefix = ring_prefix("full_disk");
  FleetServerOptions options = small_server();
  options.churn.straggle_rate = 0.4;
  options.snapshot_ring = 3;
  options.snapshot_prefix = prefix;
  FleetServerOptions straight_options = options;
  straight_options.snapshot_prefix = ring_prefix("full_disk_ref");
  FleetServer straight{workload::AppId::kFacebook, straight_options, {.workers = 2}};
  straight.run_rounds(4);
  ASSERT_NE(straight.global(), nullptr);

  std::filesystem::create_symlink("/dev/full", prefix + ".2.tmp");
  {
    FleetServer server{workload::AppId::kFacebook, options, {.workers = 2}};
    server.run_rounds(2);
    EXPECT_EQ(server.round(), 2u);
    EXPECT_EQ(server.stats().snapshots_written, 1u);
    EXPECT_EQ(server.stats().snapshots_failed, 1u);
    EXPECT_TRUE(std::filesystem::exists(prefix + ".1"));
    EXPECT_FALSE(std::filesystem::exists(prefix + ".2"));
    EXPECT_THROW(server.drain(), IoError);
  }
  std::filesystem::remove(prefix + ".2.tmp");

  FleetServer resumed{workload::AppId::kFacebook, options, {.workers = 2}};
  ASSERT_TRUE(resumed.restored());
  EXPECT_EQ(resumed.round(), 1u);
  resumed.run_rounds(3);
  EXPECT_EQ(resumed.stats().snapshots_failed, 0u);
  ASSERT_NE(resumed.global(), nullptr);
  EXPECT_EQ(canonical_bytes(*resumed.global()), canonical_bytes(*straight.global()));
  const auto read_all = [](const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    return std::vector<char>{std::istreambuf_iterator<char>{in}, {}};
  };
  for (std::size_t slot = 0; slot < options.snapshot_ring; ++slot) {
    SCOPED_TRACE("ring slot " + std::to_string(slot));
    const std::vector<char> want =
        read_all(straight_options.snapshot_prefix + "." + std::to_string(slot));
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(read_all(prefix + "." + std::to_string(slot)), want);
  }
}

TEST(FleetServerRing, EntriesHoldExactlyTheWarmBasesTheirDeltasName) {
  // Format version 4: an upload trained from a warm table is stored as a
  // delta against it, and the entry holds exactly the warm bases that some
  // standing or pending upload's delta names - each once, dropped when its
  // last reference goes. Uploads from the cold first round have no base
  // and are stored in full.
  const std::string prefix = ring_prefix("bases");
  FleetServerOptions options = small_server();
  options.devices = 4;
  options.churn.depart_rate = 0.2;
  options.churn.straggle_rate = 0.4;
  options.churn.rejoin_after_rounds = 1;
  options.snapshot_ring = 1;
  options.snapshot_prefix = prefix;
  FleetServer server{workload::AppId::kFacebook, options, {.workers = 2}};
  std::size_t delta_stored = 0;
  std::size_t pending_seen = 0;
  for (std::size_t r = 1; r <= 6; ++r) {
    SCOPED_TRACE("boundary " + std::to_string(r));
    server.run_round();
    const FleetSnapshot snap = read_fleet_state_sections(SnapshotReader::from_file(prefix + ".0"));
    std::vector<std::size_t> named;
    const auto check = [&](std::size_t trained_round, const HeldTable& held) {
      const auto* ring = std::get_if<RingDelta>(&held);
      if (trained_round == 0) {
        EXPECT_EQ(ring, nullptr);
        return;
      }
      ASSERT_NE(ring, nullptr);
      EXPECT_EQ(ring->base_round, trained_round);
      named.push_back(ring->base_round);
      ++delta_stored;
    };
    for (const auto& u : snap.uploads) {
      if (u.has_value()) check(u->round, u->held);
    }
    for (const PendingUpload& p : snap.pending_uploads) check(p.trained_round, p.held);
    pending_seen += snap.pending_uploads.size();
    std::sort(named.begin(), named.end());
    named.erase(std::unique(named.begin(), named.end()), named.end());
    std::vector<std::size_t> held;
    for (const WarmBase& b : snap.warm_bases) held.push_back(b.round);
    EXPECT_EQ(held, named);
  }
  EXPECT_GT(delta_stored, 0u);
  EXPECT_GT(pending_seen, 0u) << "retune: no upload was pending at a boundary";
}

// --- the retry-backoff overflow fix ----------------------------------------
// Pre-fix, the delay was `retry_backoff.us() << min(attempt, 20)` - signed
// overflow (UB) for any backoff above ~2.9 hours, and the jitter modulus
// used the *unclamped* base. These pins document the saturating
// replacement and would trip UBSan (or produce garbage negative delays) on
// the old code.

TEST(FleetServerBackoff, DoublingPreservedForSmallBackoffs) {
  // The default-config trajectory (4 s backoff, attempts 0..3) must be
  // byte-identical to the pre-fix behaviour or every golden would move:
  // base * 2^attempt plus jitter_draw % base.
  const SimTime base = SimTime::from_seconds(4.0);
  EXPECT_EQ(retry_delay_us(base, 0, 0), base.us());
  EXPECT_EQ(retry_delay_us(base, 1, 0), 2 * base.us());
  EXPECT_EQ(retry_delay_us(base, 3, 0), 8 * base.us());
  EXPECT_EQ(retry_delay_us(base, 2, 12345), 4 * base.us() + 12345 % base.us());
}

TEST(FleetServerBackoff, JitterStaysBelowTheBase) {
  const SimTime base = SimTime::from_seconds(2.0);
  for (std::uint64_t draw : {std::uint64_t{0}, std::uint64_t{1}, ~std::uint64_t{0}}) {
    const std::int64_t delay = retry_delay_us(base, 0, draw);
    EXPECT_GE(delay, base.us());
    EXPECT_LT(delay, 2 * base.us());
  }
}

TEST(FleetServerBackoff, HugeBackoffSaturatesInsteadOfOverflowing) {
  // A year of base backoff shifted by min(attempt, 20) is 2^20 * 3.2e13 us
  // ~ 3.3e19 - past INT64_MAX, so the pre-fix shift was signed-overflow UB
  // (UBSan traps it); a week "only" produced a positive delay of ~20'000
  // simulated years. Both must now saturate at the cap.
  const SimTime week = SimTime::from_seconds(7.0 * 24.0 * 3600.0);
  const SimTime year = SimTime::from_seconds(365.0 * 24.0 * 3600.0);
  for (const SimTime base : {week, year}) {
    for (std::uint32_t attempt : {0u, 1u, 20u, 200u, ~0u}) {
      const std::int64_t delay = retry_delay_us(base, attempt, ~std::uint64_t{0});
      EXPECT_GT(delay, 0) << "attempt " << attempt;
      EXPECT_LE(delay, 2 * kMaxUploadRetryDelay.us()) << "attempt " << attempt;
    }
  }
}

TEST(FleetServerBackoff, LargeAttemptCountSaturatesForDefaultBackoff) {
  const SimTime base = SimTime::from_seconds(4.0);
  const std::int64_t at_cap = retry_delay_us(base, 60, 0);
  EXPECT_EQ(at_cap, kMaxUploadRetryDelay.us());
  EXPECT_EQ(retry_delay_us(base, ~0u, 0), at_cap) << "doubling must have saturated";
}

TEST(FleetServerBackoff, HugeBackoffServerRoundSurvives) {
  // End-to-end regression: a server configured with a pathological backoff
  // and near-certain upload failures must still close its rounds. Pre-fix,
  // backoff + jitter overflowed int64 at the very first retry (base ~8e18
  // us, jitter drawn in [0, base)), scheduling events at UB times - delays
  // wrapped negative could resurrect a failed upload before its failure.
  FleetServerOptions options = small_server();
  options.retry_backoff = SimTime::from_seconds(8.0e12);  // ~253 millennia
  options.churn.upload_fail_rate = 0.9;
  options.max_upload_attempts = 4;
  FleetServer server{workload::AppId::kFacebook, options, {.workers = 2}};
  server.run_rounds(2);
  EXPECT_EQ(server.round(), 2u);
  // Every retry was pushed past the cap horizon, so failed first attempts
  // never land inside their round; the server degrades, never wedges.
  EXPECT_EQ(server.stats().rounds_served, 2u);
}

// --- pooled training under churn --------------------------------------------
// The "Sharded"/"Processes" names predate the thread-only pool (rounds once
// also trained across forked worker processes); they are kept so test
// history stays traceable.

TEST(FleetServer, ShardedTrainingBitIdentical) {
  // A churning round trained serially and pooled across workers lands on
  // the same bytes and the same accounting.
  FleetServerOptions options = small_server();
  options.churn.straggle_rate = 0.3;
  options.churn.upload_fail_rate = 0.2;
  FleetServer serial{workload::AppId::kFacebook, options, {.workers = 1}};
  serial.run_rounds(2);

  FleetServer pooled{workload::AppId::kFacebook, options, {.workers = 2}};
  pooled.run_rounds(2);

  ASSERT_NE(serial.global(), nullptr);
  ASSERT_NE(pooled.global(), nullptr);
  EXPECT_EQ(canonical_bytes(*serial.global()), canonical_bytes(*pooled.global()));
  EXPECT_EQ(serial.stats().total_decisions, pooled.stats().total_decisions);
  EXPECT_EQ(serial.stats().uploads_accepted, pooled.stats().uploads_accepted);
}

TEST(FleetServer, CarriedUploadsTravelAsDeltas) {
  // Every upload travels in the form the server holds it, whichever round
  // it lands in. Stragglers carry uploads across deadlines, and every
  // table trained from a warm base - carried or not - goes as its delta;
  // only the cold round 0's tables go full. With no departures and no
  // damaged attempts, each table trained makes exactly one attempt unless
  // it is still in flight when the run ends.
  FleetServerOptions options = small_server();
  options.devices = 4;
  options.churn.straggle_rate = 0.4;
  constexpr std::size_t kRounds = 5;
  FleetServer server{workload::AppId::kFacebook, options, {.workers = 2}};
  std::vector<FleetServerRoundStats> rounds;
  server.run_rounds(kRounds, [&](const FleetServerRoundStats& rs) { rounds.push_back(rs); });
  ASSERT_EQ(rounds.size(), kRounds);

  std::size_t carried_warm = 0;  // carried out of a round that had a warm base
  for (std::size_t r = 1; r + 1 < kRounds; ++r) carried_warm += rounds[r].carried_late;
  ASSERT_GT(carried_warm, 0u) << "retune: no warm-round upload crossed a deadline";
  ASSERT_GT(server.stats().late_uploads_merged, 0u);

  const FleetServerStats totals = server.stats();
  EXPECT_EQ(rounds[0].delta_uploads, 0u);
  EXPECT_EQ(totals.uploads_full, rounds[0].training_devices);
  EXPECT_EQ(totals.uploads_full + totals.uploads_delta,
            kRounds * options.devices - rounds.back().carried_late);
  EXPECT_LT(totals.upload_bytes_delta / totals.uploads_delta,
            totals.upload_bytes_full / totals.uploads_full);

  // Per-round stats reconcile with the cumulative counters.
  std::uint64_t bytes = 0;
  std::size_t deltas = 0;
  for (const auto& rs : rounds) {
    bytes += rs.upload_bytes;
    deltas += rs.delta_uploads;
  }
  EXPECT_EQ(bytes, totals.upload_bytes_delta + totals.upload_bytes_full);
  EXPECT_EQ(deltas, totals.uploads_delta);
}

TEST(FleetServerRing, WireCountersSurviveRestore) {
  // The cumulative upload-wire counters ride the sync_state section:
  // a kill -9 resume must keep counting from where the boundary left off
  // rather than resetting to zero.
  const std::string prefix = ring_prefix("wirecount");
  FleetServerOptions options = small_server();
  options.snapshot_ring = 2;
  options.snapshot_prefix = prefix;
  FleetServerStats before;
  {
    FleetServer server{workload::AppId::kFacebook, options, {.workers = 2}};
    server.run_rounds(2);
    before = server.stats();
  }  // destroyed without drain(): kill -9
  EXPECT_GT(before.uploads_full, 0u);
  EXPECT_GT(before.uploads_delta, 0u);
  FleetServer resumed{workload::AppId::kFacebook, options, {.workers = 2}};
  ASSERT_TRUE(resumed.restored());
  EXPECT_EQ(resumed.stats().upload_bytes_full, before.upload_bytes_full);
  EXPECT_EQ(resumed.stats().upload_bytes_delta, before.upload_bytes_delta);
  EXPECT_EQ(resumed.stats().uploads_full, before.uploads_full);
  EXPECT_EQ(resumed.stats().uploads_delta, before.uploads_delta);
}

TEST(FleetServer, ProcessesKnobExcludedFromOptionsIdentity) {
  // Execution strategy lives in the constructor's ExecOptions, outside the
  // FleetServerOptions a ring entry pins: a ring written under one
  // ExecOptions restores under another and the other way round, and both
  // land on the same bytes.
  FleetServerOptions options = small_server();
  options.snapshot_ring = 2;
  options.snapshot_prefix = ring_prefix("exec_identity");
  {
    FleetServer serial{workload::AppId::kFacebook, options, {.workers = 1}};
    serial.run_rounds(1);
  }  // destroyed without drain(): kill -9
  FleetServer pooled{workload::AppId::kFacebook, options, {.workers = 2}};
  ASSERT_TRUE(pooled.restored());
  EXPECT_EQ(pooled.round(), 1u);
  pooled.run_rounds(1);
  FleetServer pooled_again{workload::AppId::kFacebook, options, {.workers = 3}};
  ASSERT_TRUE(pooled_again.restored());
  EXPECT_EQ(pooled_again.round(), 2u);
  ASSERT_NE(pooled.global(), nullptr);
  ASSERT_NE(pooled_again.global(), nullptr);
  EXPECT_EQ(canonical_bytes(*pooled_again.global()), canonical_bytes(*pooled.global()));
}

}  // namespace
}  // namespace nextgov::sim
