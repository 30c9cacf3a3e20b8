// Unit tests for the fleet server's snapshot sections (sim/fleet.hpp):
// round trips of the "fleet_state", version-2 "server_state" and version-3
// "sync_state" sections, the byte layout the ring keeps for the retired
// shard tier, refusal of checkpoints from the retired fixed-round trainer,
// and corruption rejection plus quarantine. The bit-identical kill -9
// behaviour of the server itself is pinned by
// tests/sim/fleet_server_golden_test.cpp and the fleet_serverd CI smoke.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <vector>

#include "sim/fleet_server.hpp"
#include "temp_path.hpp"

namespace nextgov::sim {
namespace {

rl::QTable table_with(std::size_t actions, rl::StateKey base, std::size_t states) {
  rl::QTable t{actions};
  for (rl::StateKey s = 0; s < states; ++s) {
    t.set_q(base + s, s % actions, 0.01 * static_cast<double>(s));
    t.record_visit(base + s);
  }
  return t;
}

/// A server-shaped boundary: two devices (one with an accepted upload),
/// one departed lease, one upload in flight, live counters.
FleetSnapshot sample_snapshot() {
  FleetSnapshot snap;
  snap.next_round = 3;
  snap.total_decisions = 1234;
  snap.last_round_mean_reward = 0.625;
  snap.uploads.push_back(FleetUpload{table_with(9, 200, 4), 2});
  snap.uploads.push_back(std::nullopt);
  snap.last_aggregate = table_with(9, 300, 6);
  snap.leases = {DeviceLease{true, 0}, DeviceLease{false, 7}};
  snap.pending_uploads.push_back(PendingUpload{1, 2, 987654321, 3, table_with(9, 400, 3)});
  snap.server_clock_us = 123456789;
  snap.server_counters = {10, 20, 30, 40, 50, 60};
  snap.sync = {11111, 2222, 7, 13};
  return snap;
}

/// Copies the named sections of `bytes` into a fresh container, optionally
/// replacing one section's payload - how the tests below build the files
/// older or foreign writers produced.
std::vector<std::uint8_t> rebuild(const std::vector<std::uint8_t>& bytes,
                                  std::initializer_list<const char*> keep,
                                  const char* replace = nullptr,
                                  const std::vector<std::uint8_t>& payload = {}) {
  const SnapshotReader original{bytes, "original"};
  SnapshotWriter out;
  for (const char* name : keep) {
    if (replace != nullptr && std::string{name} == replace) {
      out.section(name).bytes(payload);
      continue;
    }
    ByteReader in = original.section(name);
    std::vector<std::uint8_t> copy;
    while (!in.done()) copy.push_back(in.u8());
    out.section(name).bytes(copy);
  }
  return out.bytes();
}

std::vector<std::uint8_t> snapshot_bytes(const FleetSnapshot& snap) {
  SnapshotWriter out;
  write_fleet_state_sections(out, snap);
  return out.bytes();
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes,
                 std::size_t count) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, count, f);
  std::fclose(f);
}

class FleetSnapshotFile : public ::testing::Test {
 protected:
  std::string path_ = test::unique_temp_path("nextgov_fleet_snapshot_test.bin");
};

TEST_F(FleetSnapshotFile, RoundTripsAllState) {
  const FleetSnapshot snap = sample_snapshot();
  SnapshotWriter out;
  write_fleet_state_sections(out, snap);
  out.write_file(path_);
  const FleetSnapshot back = read_fleet_state_sections(read_snapshot_quarantining(path_));
  EXPECT_EQ(back.next_round, snap.next_round);
  EXPECT_EQ(back.total_decisions, snap.total_decisions);
  EXPECT_EQ(back.last_round_mean_reward, snap.last_round_mean_reward);
  ASSERT_EQ(back.uploads.size(), 2u);
  ASSERT_TRUE(back.uploads[0].has_value());
  EXPECT_EQ(back.uploads[0]->round, 2u);
  EXPECT_TRUE(back.uploads[0]->table == snap.uploads[0]->table);
  EXPECT_FALSE(back.uploads[1].has_value());
  ASSERT_TRUE(back.last_aggregate.has_value());
  EXPECT_TRUE(*back.last_aggregate == *snap.last_aggregate);
}

TEST_F(FleetSnapshotFile, RetiredShardSlotsKeepTheirPlaceholderBytes) {
  // The snapshot policy for the retired shard tier: no format bump. The
  // writer still emits the tier's slots as placeholders, so a ring entry
  // is byte-identical to one written while the tier existed - pinned here
  // against the layout spelled out field by field.
  FleetSnapshot snap;
  snap.next_round = 5;
  snap.total_decisions = 77;
  snap.last_round_mean_reward = 0.5;
  snap.uploads.push_back(FleetUpload{table_with(9, 10, 2), 4});
  snap.uploads.push_back(std::nullopt);

  ByteWriter want;
  want.u64(5);
  want.u64(77);
  want.f64(0.5);
  want.u64(0);  // dropped device-rounds
  want.u64(0);  // rejected uploads
  want.u32(2);
  want.boolean(false);  // device 0: no shard table
  want.boolean(true);
  want.u64(4);
  snap.uploads[0]->table.serialize(want);
  want.u64(4);          // device 0: last-upload round
  want.boolean(false);  // device 1: no shard table
  want.boolean(false);
  want.u64(~std::uint64_t{0});  // device 1: never uploaded
  want.boolean(false);          // no aggregate
  ByteWriter want_sync;
  want_sync.u32(0);  // no delta bases
  for (int i = 0; i < 4; ++i) want_sync.u64(0);

  const SnapshotReader reader{snapshot_bytes(snap), "placeholders"};
  ByteReader state = reader.section("fleet_state");
  ASSERT_EQ(state.remaining(), want.size());
  for (const std::uint8_t byte : want.data()) EXPECT_EQ(state.u8(), byte);
  ByteReader sync = reader.section("sync_state");
  ASSERT_EQ(sync.remaining(), want_sync.size());
  for (const std::uint8_t byte : want_sync.data()) EXPECT_EQ(sync.u8(), byte);

  // Shard-tier state proper (a shard table, a delta base) only the retired
  // trainer ever wrote; the reader refuses it as a typed error.
  std::vector<std::uint8_t> with_table = want.data();
  with_table[8 + 8 + 8 + 8 + 8 + 4] = 1;  // device 0's shard-table flag
  EXPECT_THROW((void)read_fleet_state_sections(SnapshotReader{
                   rebuild(snapshot_bytes(snap), {"fleet_state", "server_state"},
                           "fleet_state", with_table),
                   "shard table"}),
               SerializeError);
  std::vector<std::uint8_t> with_base = want_sync.data();
  with_base[0] = 1;  // one delta base
  EXPECT_THROW((void)read_fleet_state_sections(SnapshotReader{
                   rebuild(snapshot_bytes(snap), {"fleet_state", "server_state", "sync_state"},
                           "sync_state", with_base),
                   "delta base"}),
               SerializeError);
}

TEST_F(FleetSnapshotFile, ResumeUnderDifferentOptionsIsRefused) {
  // A checkpoint of the retired fixed-round trainer carries its options in
  // a "fleet_options" section instead of "fleet_server_options". Found in a
  // ring slot it is refused loudly, as a typed error - and, being a valid
  // file, left in place rather than quarantined.
  const std::string prefix = test::unique_temp_path("nextgov_fleet_legacy_ring");
  const std::string slot = prefix + ".0";
  SnapshotWriter legacy;
  legacy.section("fleet_options").u64(8);
  write_fleet_state_sections(legacy, sample_snapshot());
  legacy.write_file(slot);

  FleetServerOptions options;
  options.devices = 2;
  options.snapshot_ring = 1;
  options.snapshot_prefix = prefix;
  EXPECT_THROW((FleetServer{workload::AppId::kFacebook, options}), SerializeError);
  EXPECT_TRUE(std::filesystem::exists(slot));
  EXPECT_FALSE(std::filesystem::exists(slot + ".corrupt"));
  std::remove(slot.c_str());
}

TEST_F(FleetSnapshotFile, CorruptionAndTruncationAreRejected) {
  const std::vector<std::uint8_t> good = snapshot_bytes(sample_snapshot());
  std::vector<std::uint8_t> bad = good;
  bad[bad.size() / 2] ^= 0x40;
  write_bytes(path_, bad, bad.size());
  EXPECT_THROW((void)read_snapshot_quarantining(path_), SerializeError);
  write_bytes(path_, good, good.size() / 3);
  EXPECT_THROW((void)read_snapshot_quarantining(path_), SerializeError);
  EXPECT_THROW((void)read_snapshot_quarantining(path_ + ".missing"), IoError);
}

TEST_F(FleetSnapshotFile, CorruptSnapshotIsQuarantinedNotLeftInPlace) {
  // A CRC-failing snapshot must not sit at its path failing every restart:
  // the load renames it to <path>.corrupt (and says so in the error), so
  // the next startup falls through to older state instead of re-reading
  // the same damage forever.
  std::vector<std::uint8_t> bytes = snapshot_bytes(sample_snapshot());
  bytes[bytes.size() - 8] ^= 0xa5;  // inside the last section's payload
  write_bytes(path_, bytes, bytes.size());
  try {
    (void)read_snapshot_quarantining(path_);
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.kind(), SerializeError::Kind::kCorrupt);
    EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos) << e.what();
  }
  // The original is gone; the damage is preserved for post-mortems.
  EXPECT_FALSE(std::filesystem::exists(path_));
  EXPECT_TRUE(std::filesystem::exists(path_ + ".corrupt"));

  // A version-window refusal is a valid file from another release: it is
  // reported with its own kind and stays where it is.
  bytes = snapshot_bytes(sample_snapshot());
  bytes[4] = static_cast<std::uint8_t>(kSnapshotVersion + 1);
  write_bytes(path_, bytes, bytes.size());
  try {
    (void)read_snapshot_quarantining(path_);
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.kind(), SerializeError::Kind::kVersionWindow);
  }
  EXPECT_TRUE(std::filesystem::exists(path_));
}

TEST_F(FleetSnapshotFile, ServerStateRoundTripsThroughVersionTwo) {
  // The server extension (leases, pending uploads, clock, counters) must
  // survive a container round trip bit-exactly - it is what makes a kill -9
  // resume replay the same arrivals.
  const FleetSnapshot snap = sample_snapshot();
  const std::vector<std::uint8_t> bytes = snapshot_bytes(snap);
  const SnapshotReader reader{bytes, "v2"};
  EXPECT_EQ(reader.version(), kSnapshotVersion);
  const FleetSnapshot back = read_fleet_state_sections(reader);
  ASSERT_EQ(back.leases.size(), 2u);
  EXPECT_TRUE(back.leases[0].active);
  EXPECT_FALSE(back.leases[1].active);
  EXPECT_EQ(back.leases[1].rejoin_round, 7u);
  ASSERT_EQ(back.pending_uploads.size(), 1u);
  EXPECT_EQ(back.pending_uploads[0].device, 1u);
  EXPECT_EQ(back.pending_uploads[0].trained_round, 2u);
  EXPECT_EQ(back.pending_uploads[0].arrival_us, 987654321);
  EXPECT_EQ(back.pending_uploads[0].attempts_used, 3u);
  EXPECT_TRUE(back.pending_uploads[0].table == snap.pending_uploads[0].table);
  EXPECT_EQ(back.server_clock_us, 123456789);
  EXPECT_EQ(back.server_counters.rounds_served, 10u);
  EXPECT_EQ(back.server_counters.uploads_accepted, 20u);
  EXPECT_EQ(back.server_counters.uploads_retried, 30u);
  EXPECT_EQ(back.server_counters.uploads_lost, 40u);
  EXPECT_EQ(back.server_counters.late_uploads_merged, 50u);
  EXPECT_EQ(back.server_counters.departures, 60u);

  // Without its server_state section an entry cannot seed a server.
  EXPECT_THROW(
      (void)read_fleet_state_sections(SnapshotReader{rebuild(bytes, {"fleet_state"}), "v1"}),
      SerializeError);
}

TEST_F(FleetSnapshotFile, SyncStateRoundTripsThroughVersionThree) {
  // The cumulative upload-wire counters must survive a container round
  // trip, so a resumed server keeps counting where it stopped.
  const FleetSnapshot back =
      read_fleet_state_sections(SnapshotReader{snapshot_bytes(sample_snapshot()), "v3"});
  EXPECT_EQ(back.sync.upload_bytes_full, 11111u);
  EXPECT_EQ(back.sync.upload_bytes_delta, 2222u);
  EXPECT_EQ(back.sync.uploads_full, 7u);
  EXPECT_EQ(back.sync.uploads_delta, 13u);
}

TEST_F(FleetSnapshotFile, MissingSyncSectionDecodesWithDefaults) {
  // Pre-v3 files have no "sync_state" section: the decode must fall back
  // to zero counters, not fail.
  const std::vector<std::uint8_t> pruned =
      rebuild(snapshot_bytes(sample_snapshot()), {"fleet_state", "server_state"});
  const FleetSnapshot back = read_fleet_state_sections(SnapshotReader{pruned, "pruned"});
  EXPECT_EQ(back.next_round, 3u);
  EXPECT_EQ(back.server_clock_us, 123456789);
  EXPECT_EQ(back.sync.upload_bytes_full, 0u);
  EXPECT_EQ(back.sync.upload_bytes_delta, 0u);
  EXPECT_EQ(back.sync.uploads_full, 0u);
  EXPECT_EQ(back.sync.uploads_delta, 0u);
}

}  // namespace
}  // namespace nextgov::sim
