// Unit tests for the fleet server's snapshot sections (sim/fleet.hpp):
// round trips of the "fleet_state", "server_state" and "sync_state"
// sections, the version-4 byte layout (warm bases, delta-stored uploads),
// the version-3 decode path and its refusal of shard-tier state, refusal of
// malformed delta storage and of checkpoints from the retired fixed-round
// trainer, and corruption rejection plus quarantine. The bit-identical
// kill -9 behaviour of the server itself is pinned by
// tests/sim/fleet_server_golden_test.cpp and the fleet_serverd CI smoke.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "oracles/crc32.hpp"
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

/// A container of format `version` holding `sections`, assembled by hand
/// (section CRCs seeded with the version word) - how the tests build the
/// entries a version-3 writer produced.
std::vector<std::uint8_t> container(
    std::uint32_t version,
    const std::vector<std::pair<std::string, std::vector<std::uint8_t>>>& sections) {
  ByteWriter out;
  out.u32(kSnapshotMagic);
  out.u32(version);
  out.u32(static_cast<std::uint32_t>(sections.size()));
  for (const auto& [name, payload] : sections) {
    ByteWriter seeded;
    seeded.u32(version);
    seeded.bytes(payload);
    out.str(name);
    out.u64(payload.size());
    out.u32(test::crc32(seeded.data()));
    out.bytes(payload);
  }
  return out.take();
}

/// A warm base, a table trained from it and the delta between them.
struct DeltaFixture {
  rl::QTable base;
  rl::QTable trained;
  rl::QTableDelta delta;
};

DeltaFixture delta_fixture() {
  const rl::QTable base = strip_visit_mass(table_with(9, 10, 6));
  rl::QTable trained = base;
  trained.set_q(12, 3, -0.75);
  trained.record_visit(12);
  trained.set_q(99, 1, 0.5);
  trained.record_visit(99);
  std::optional<rl::QTableDelta> delta = rl::try_make_delta(base, trained);
  EXPECT_TRUE(delta.has_value());
  return DeltaFixture{base, trained, std::move(*delta)};
}

/// A version-4 boundary at round 5: device 0's upload and one pending
/// upload stored as deltas against the round-4 warm base, device 1 empty,
/// device 2's upload stored in full.
FleetSnapshot delta_snapshot(const DeltaFixture& f) {
  FleetSnapshot snap;
  snap.next_round = 5;
  snap.total_decisions = 77;
  snap.last_round_mean_reward = 0.5;
  snap.last_aggregate = table_with(9, 300, 3);
  snap.warm_bases.push_back(WarmBase{4, f.base});
  snap.uploads.push_back(FleetUpload{RingDelta{4, f.delta}, 4});
  snap.uploads.push_back(std::nullopt);
  snap.uploads.push_back(FleetUpload{table_with(9, 50, 2), 3});
  snap.pending_uploads.push_back(PendingUpload{1, 4, 4242, 2, RingDelta{4, f.delta}});
  return snap;
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
  EXPECT_TRUE(std::get<rl::QTable>(back.uploads[0]->held) ==
              std::get<rl::QTable>(snap.uploads[0]->held));
  EXPECT_FALSE(back.uploads[1].has_value());
  ASSERT_TRUE(back.last_aggregate.has_value());
  EXPECT_TRUE(*back.last_aggregate == *snap.last_aggregate);
}

TEST_F(FleetSnapshotFile, VersionFourLayoutIsPinnedFieldByField) {
  // A version-4 entry holds the aggregate and each warm base once, in full,
  // and each upload as a tag byte and either a delta against a base (named
  // by its round) or the full table. No placeholder of the retired shard
  // tier is left. Pinned against the layout spelled out field by field.
  const DeltaFixture f = delta_fixture();
  const FleetSnapshot snap = delta_snapshot(f);

  ByteWriter want;
  want.u64(5);
  want.u64(77);
  want.f64(0.5);
  want.boolean(true);
  snap.last_aggregate->serialize(want);
  want.u32(1);  // one warm base
  want.u64(4);
  f.base.serialize(want);
  want.u32(3);  // devices
  want.boolean(true);
  want.u64(4);
  want.u8(1);  // stored as a delta
  want.u64(4);
  f.delta.serialize(want);
  want.boolean(false);
  want.boolean(true);
  want.u64(3);
  want.u8(0);  // stored in full
  std::get<rl::QTable>(snap.uploads[2]->held).serialize(want);
  ByteWriter want_server;
  want_server.i64(0);
  want_server.u32(0);  // leases
  want_server.u32(1);  // one pending upload, stored as a delta
  want_server.u64(1);
  want_server.u64(4);
  want_server.i64(4242);
  want_server.u32(2);
  want_server.u8(1);
  want_server.u64(4);
  f.delta.serialize(want_server);
  for (int i = 0; i < 6; ++i) want_server.u64(0);
  ByteWriter want_sync;
  for (int i = 0; i < 4; ++i) want_sync.u64(0);

  const SnapshotReader reader{snapshot_bytes(snap), "v4 layout"};
  EXPECT_EQ(reader.version(), 4u);
  const std::pair<const char*, const ByteWriter*> sections[] = {
      {"fleet_state", &want}, {"server_state", &want_server}, {"sync_state", &want_sync}};
  for (const auto& [name, bytes] : sections) {
    SCOPED_TRACE(name);
    ByteReader section = reader.section(name);
    ASSERT_EQ(section.remaining(), bytes->size());
    for (const std::uint8_t byte : bytes->data()) EXPECT_EQ(section.u8(), byte);
  }
}

TEST_F(FleetSnapshotFile, DeltaStoredUploadsDecodeAsDeltas) {
  // The reader keeps every delta-stored upload as its delta, checked
  // against its base but not rebuilt; the table it stands for is
  // apply_delta over that base - the table earlier readers rebuilt - and
  // the next write stores the deltas and bases again unchanged.
  const DeltaFixture f = delta_fixture();
  const FleetSnapshot snap = delta_snapshot(f);
  const std::vector<std::uint8_t> bytes = snapshot_bytes(snap);
  const FleetSnapshot back = read_fleet_state_sections(SnapshotReader{bytes, "deltas"});
  ASSERT_EQ(back.warm_bases.size(), 1u);
  EXPECT_EQ(back.warm_bases[0].round, 4u);
  EXPECT_TRUE(back.warm_bases[0].table == f.base);
  const auto delta_of = [&](const HeldTable& held) -> const RingDelta* {
    const auto* ring = std::get_if<RingDelta>(&held);
    EXPECT_NE(ring, nullptr) << "rebuilt instead of kept as a delta";
    return ring;
  };
  ASSERT_TRUE(back.uploads[0].has_value());
  const RingDelta* upload = delta_of(back.uploads[0]->held);
  ASSERT_NE(upload, nullptr);
  EXPECT_EQ(upload->base_round, 4u);
  EXPECT_TRUE(rl::apply_delta(f.base, upload->delta) == f.trained);
  ASSERT_TRUE(back.uploads[2].has_value());
  EXPECT_TRUE(std::get<rl::QTable>(back.uploads[2]->held) ==
              std::get<rl::QTable>(snap.uploads[2]->held));
  ASSERT_EQ(back.pending_uploads.size(), 1u);
  const RingDelta* pending = delta_of(back.pending_uploads[0].held);
  ASSERT_NE(pending, nullptr);
  EXPECT_EQ(pending->base_round, 4u);
  EXPECT_TRUE(rl::apply_delta(f.base, pending->delta) == f.trained);
  EXPECT_EQ(snapshot_bytes(back), bytes);
}

TEST_F(FleetSnapshotFile, MalformedDeltaStorageIsRefused) {
  // What the CRCs cannot see but the decoder must: a delta that names a
  // base the entry does not hold, or that does not apply to its base, a
  // duplicate base round, a base from a round the boundary has not reached
  // and an unknown storage tag. (The writer stores what it is given; the
  // server never hands it such a state.)
  const DeltaFixture f = delta_fixture();
  const auto refused = [](const FleetSnapshot& snap, const char* what) {
    EXPECT_THROW((void)read_fleet_state_sections(SnapshotReader{snapshot_bytes(snap), what}),
                 SerializeError)
        << what;
  };
  FleetSnapshot snap = delta_snapshot(f);
  std::get<RingDelta>(snap.uploads[0]->held).base_round = 2;
  refused(snap, "a delta naming an absent base");
  snap = delta_snapshot(f);
  std::get<RingDelta>(snap.pending_uploads[0].held).base_round = 3;
  refused(snap, "a pending delta naming an absent base");
  snap = delta_snapshot(f);
  snap.warm_bases[0].table = table_with(9, 700, 2);
  refused(snap, "a delta that does not apply to its base");
  snap = delta_snapshot(f);
  snap.warm_bases.push_back(snap.warm_bases[0]);
  refused(snap, "a duplicate base round");
  snap = delta_snapshot(f);
  snap.warm_bases.insert(snap.warm_bases.begin(), WarmBase{2, f.base});
  std::swap(snap.warm_bases[0], snap.warm_bases[1]);
  refused(snap, "base rounds out of order");
  snap = delta_snapshot(f);
  snap.warm_bases.push_back(WarmBase{5, f.base});
  refused(snap, "a base from the round the boundary opens");

  // The storage tag of device 0's upload: after the header, the aggregate,
  // the base list, the device count, its flag and its round.
  snap = delta_snapshot(f);
  const SnapshotReader entry{snapshot_bytes(snap), "tag"};
  std::vector<std::uint8_t> state;
  for (ByteReader in = entry.section("fleet_state"); !in.done();) state.push_back(in.u8());
  const std::size_t tag_at = 24 + 1 + snap.last_aggregate->serialized_size() + 4 + 8 +
                             f.base.serialized_size() + 4 + 1 + 8;
  ASSERT_EQ(state[tag_at], 1u);
  state[tag_at] = 2;
  EXPECT_THROW((void)read_fleet_state_sections(SnapshotReader{
                   rebuild(snapshot_bytes(snap), {"fleet_state", "server_state", "sync_state"},
                           "fleet_state", state),
                   "unknown tag"}),
               SerializeError);
}

TEST_F(FleetSnapshotFile, VersionThreeEntryDecodesAndShardStateIsRefused) {
  // The version-3 decode path: every table in full, behind the retired
  // shard tier's placeholders (two zero counters, a shard-table flag and a
  // last-upload round per device, an empty delta-base list). It decodes
  // with no warm bases and no ring deltas; real shard-tier state (a shard
  // table, a delta base), which only the retired trainer wrote, is refused.
  const rl::QTable upload = table_with(9, 10, 2);
  const rl::QTable pending = table_with(9, 40, 3);
  ByteWriter state;
  state.u64(5);
  state.u64(77);
  state.f64(0.5);
  state.u64(0);  // dropped device-rounds
  state.u64(0);  // rejected uploads
  state.u32(2);
  state.boolean(false);  // device 0: no shard table
  state.boolean(true);
  state.u64(4);
  upload.serialize(state);
  state.u64(4);          // device 0: last-upload round
  state.boolean(false);  // device 1: no shard table
  state.boolean(false);
  state.u64(~std::uint64_t{0});  // device 1: never uploaded
  state.boolean(false);          // no aggregate
  ByteWriter server;
  server.i64(99);
  server.u32(2);
  server.boolean(true);
  server.u64(0);
  server.boolean(false);
  server.u64(6);
  server.u32(1);
  server.u64(1);
  server.u64(4);
  server.i64(1234);
  server.u32(1);
  pending.serialize(server);
  for (std::uint64_t c = 1; c <= 6; ++c) server.u64(c);
  ByteWriter sync;
  sync.u32(0);  // no delta bases
  for (std::uint64_t c = 11; c <= 14; ++c) sync.u64(c);

  const FleetSnapshot back = read_fleet_state_sections(SnapshotReader{
      container(3, {{"fleet_state", state.data()},
                    {"server_state", server.data()},
                    {"sync_state", sync.data()}}),
      "v3"});
  EXPECT_EQ(back.next_round, 5u);
  EXPECT_TRUE(back.warm_bases.empty());
  ASSERT_EQ(back.uploads.size(), 2u);
  ASSERT_TRUE(back.uploads[0].has_value());
  EXPECT_EQ(back.uploads[0]->round, 4u);
  EXPECT_TRUE(std::get<rl::QTable>(back.uploads[0]->held) == upload);
  EXPECT_FALSE(back.uploads[1].has_value());
  ASSERT_EQ(back.pending_uploads.size(), 1u);
  EXPECT_TRUE(std::get<rl::QTable>(back.pending_uploads[0].held) == pending);
  EXPECT_EQ(back.server_counters.departures, 6u);
  EXPECT_EQ(back.sync.uploads_delta, 14u);

  std::vector<std::uint8_t> with_table = state.data();
  with_table[8 + 8 + 8 + 8 + 8 + 4] = 1;  // device 0's shard-table flag
  EXPECT_THROW((void)read_fleet_state_sections(SnapshotReader{
                   container(3, {{"fleet_state", with_table},
                                 {"server_state", server.data()},
                                 {"sync_state", sync.data()}}),
                   "shard table"}),
               SerializeError);
  std::vector<std::uint8_t> with_base = sync.data();
  with_base[0] = 1;  // one delta base
  EXPECT_THROW((void)read_fleet_state_sections(SnapshotReader{
                   container(3, {{"fleet_state", state.data()},
                                 {"server_state", server.data()},
                                 {"sync_state", with_base}}),
                   "delta base"}),
               SerializeError);
  // Versions 1 and 2, and their default of zero counters for an absent
  // "sync_state", are gone: a version-3 entry without it is refused.
  EXPECT_THROW((void)read_fleet_state_sections(SnapshotReader{
                   container(3, {{"fleet_state", state.data()}, {"server_state", server.data()}}),
                   "no sync_state"}),
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

TEST_F(FleetSnapshotFile, ServerStateRoundTrips) {
  // The server extension (leases, pending uploads, clock, counters) must
  // survive a container round trip bit-exactly - it is what makes a kill -9
  // resume replay the same arrivals.
  const FleetSnapshot snap = sample_snapshot();
  const std::vector<std::uint8_t> bytes = snapshot_bytes(snap);
  const SnapshotReader reader{bytes, "server state"};
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
  EXPECT_TRUE(std::get<rl::QTable>(back.pending_uploads[0].held) ==
              std::get<rl::QTable>(snap.pending_uploads[0].held));
  EXPECT_EQ(back.server_clock_us, 123456789);
  EXPECT_EQ(back.server_counters.rounds_served, 10u);
  EXPECT_EQ(back.server_counters.uploads_accepted, 20u);
  EXPECT_EQ(back.server_counters.uploads_retried, 30u);
  EXPECT_EQ(back.server_counters.uploads_lost, 40u);
  EXPECT_EQ(back.server_counters.late_uploads_merged, 50u);
  EXPECT_EQ(back.server_counters.departures, 60u);

  // Without its server_state section an entry cannot seed a server.
  EXPECT_THROW(
      (void)read_fleet_state_sections(
          SnapshotReader{rebuild(bytes, {"fleet_state", "sync_state"}), "no server_state"}),
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

TEST_F(FleetSnapshotFile, MissingSyncSectionIsRefused) {
  // Every entry in the version window [3, 4] carries "sync_state"; the zero
  // counters an absent one used to decode to were the version-1/2 default.
  const std::vector<std::uint8_t> pruned =
      rebuild(snapshot_bytes(sample_snapshot()), {"fleet_state", "server_state"});
  EXPECT_THROW((void)read_fleet_state_sections(SnapshotReader{pruned, "pruned"}), SerializeError);
}

}  // namespace
}  // namespace nextgov::sim
