// Integration tests for the fleet server's churn machinery (seeded
// departures, stragglers and damaged uploads): it is deterministic
// (worker-count independent), degrades rounds gracefully instead of failing
// them, never absorbs a damaged or partial table, reports every fault it
// injected, and resumes from its ring onto the same bytes with faults
// active. The kill -9 sweep over every boundary under full churn is pinned
// by the golden tier (tests/sim/fleet_server_golden_test.cpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sim/fleet_server.hpp"
#include "temp_path.hpp"

namespace nextgov::sim {
namespace {

FleetServerOptions churny_server() {
  FleetServerOptions options;
  options.devices = 6;
  options.round_duration = SimTime::from_seconds(20.0);
  options.round_deadline = SimTime::from_seconds(40.0);
  options.episode_length = SimTime::from_seconds(10.0);
  options.heartbeat_period = SimTime::from_seconds(2.0);
  options.lease_timeout = SimTime::from_seconds(5.0);
  options.upload_latency = SimTime::from_seconds(1.0);
  options.retry_backoff = SimTime::from_seconds(2.0);
  options.base_seed = 777;
  options.churn.seed = 42;
  options.churn.depart_rate = 0.3;
  options.churn.straggle_rate = 0.3;
  options.churn.upload_fail_rate = 0.4;
  options.churn.rejoin_after_rounds = 1;
  return options;
}

/// The classic federated fault plan on the server: per-round dropout is a
/// departure that rejoins the next round, and a damaged upload is lost
/// outright (one attempt, no retry). No stragglers, so every surviving
/// upload lands in its own round.
FleetServerOptions dropout_and_corruption() {
  FleetServerOptions options = churny_server();
  options.churn.depart_rate = 0.2;
  options.churn.straggle_rate = 0.0;
  options.churn.upload_fail_rate = 0.3;
  options.churn.rejoin_after_rounds = 1;
  options.max_upload_attempts = 1;
  return options;
}

std::vector<std::uint8_t> canonical_bytes(const rl::QTable& table) {
  ByteWriter out;
  table.serialize(out);
  return out.data();
}

TEST(FleetServerFaults, ChurningServerIsDeterministicAcrossWorkerCounts) {
  // Departures, stragglers, retries and losses all draw from
  // (round, device, attempt)-keyed streams, so the event loop's outcome -
  // down to every counter - must be independent of the training pool size.
  const FleetServerOptions options = churny_server();
  std::vector<std::vector<std::uint8_t>> tables;
  std::vector<FleetServerStats> stats;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
    FleetServer server{workload::AppId::kFacebook, options, {.workers = workers}};
    server.run_rounds(3);
    ASSERT_NE(server.global(), nullptr) << workers << " workers";
    tables.push_back(canonical_bytes(*server.global()));
    stats.push_back(server.stats());
  }
  for (std::size_t i = 1; i < tables.size(); ++i) {
    EXPECT_EQ(tables[0], tables[i]) << "worker-count variant " << i;
    EXPECT_EQ(stats[0].uploads_accepted, stats[i].uploads_accepted);
    EXPECT_EQ(stats[0].uploads_retried, stats[i].uploads_retried);
    EXPECT_EQ(stats[0].uploads_lost, stats[i].uploads_lost);
    EXPECT_EQ(stats[0].late_uploads_merged, stats[i].late_uploads_merged);
    EXPECT_EQ(stats[0].departures, stats[i].departures);
    EXPECT_EQ(stats[0].total_decisions, stats[i].total_decisions);
  }
  // The churn plan must actually exercise both failure modes here, or this
  // test is vacuously green.
  EXPECT_GT(stats[0].departures, 0u);
  EXPECT_GT(stats[0].uploads_retried + stats[0].late_uploads_merged, 0u);
}

TEST(FleetServerFaults, DepartedDeviceNeverContributesAPartialTable) {
  // A device that departs mid-round has its training cell discarded
  // entirely: per-round quorum + late merges can only come from devices
  // that finished training, and the upload ledger (persisted in the ring
  // snapshot) must show no accepted upload from any departed round.
  FleetServerOptions options = churny_server();
  options.churn.straggle_rate = 0.0;   // isolate departures
  options.churn.upload_fail_rate = 0.0;
  const std::string prefix = test::unique_temp_path("nextgov_fsrv_departed_ledger");
  options.snapshot_ring = 1;
  options.snapshot_prefix = prefix;

  FleetServer server{workload::AppId::kFacebook, options, {.workers = 2}};
  std::vector<FleetServerRoundStats> rounds;
  server.run_rounds(3, [&](const FleetServerRoundStats& rs) { rounds.push_back(rs); });
  std::size_t departures = 0;
  for (const auto& rs : rounds) {
    departures += rs.departures;
    // Without stragglers or failures, accepted tables == devices that
    // actually trained, never more.
    EXPECT_EQ(rs.quorum, rs.training_devices);
    EXPECT_EQ(rs.late_merged, 0u);
    // Trainees and departures partition the *leased* devices; the rest are
    // still away from an earlier departure.
    EXPECT_LE(rs.training_devices + rs.departures, 6u);
  }
  ASSERT_GT(departures, 0u) << "retune churn seed: no device ever departed";

  // Cross-check through the persisted ledger: the final boundary snapshot
  // records, per device, the last table the server accepted.
  const FleetSnapshot ledger =
      read_fleet_state_sections(SnapshotReader::from_file(prefix + ".0"));
  ASSERT_EQ(ledger.uploads.size(), 6u);
  std::size_t devices_with_uploads = 0;
  for (std::size_t d = 0; d < 6; ++d) {
    if (ledger.uploads[d].has_value()) ++devices_with_uploads;
  }
  // Everyone who trained at least once has a ledger entry; the sum of all
  // per-round trainees bounds the ledger (departed rounds contribute none).
  std::size_t total_trainee_rounds = 0;
  for (const auto& rs : rounds) total_trainee_rounds += rs.training_devices;
  EXPECT_GT(devices_with_uploads, 0u);
  EXPECT_LE(devices_with_uploads, total_trainee_rounds);
  EXPECT_EQ(server.stats().uploads_accepted, total_trainee_rounds)
      << "an accepted table appeared that no completed training round produced";
}

TEST(FleetFaults, FaultedRunIsDeterministicAcrossWorkerCounts) {
  // Dropout and upload corruption draw from (round, device, attempt)-keyed
  // streams, so which devices drop and which uploads are lost - and hence
  // the global table - must not depend on the training pool size, on the
  // full and on the delta wire alike.
  FleetServerOptions options = dropout_and_corruption();
  for (const bool delta : {false, true}) {
    SCOPED_TRACE(delta ? "delta uploads" : "full uploads");
    options.delta_uploads = delta;
    FleetServer serial{workload::AppId::kFacebook, options, {.workers = 1}};
    FleetServer pooled{workload::AppId::kFacebook, options, {.workers = 4}};
    serial.run_rounds(3);
    pooled.run_rounds(3);
    ASSERT_NE(serial.global(), nullptr);
    ASSERT_NE(pooled.global(), nullptr);
    EXPECT_TRUE(*serial.global() == *pooled.global());
    EXPECT_EQ(serial.stats().total_decisions, pooled.stats().total_decisions);
    EXPECT_EQ(serial.stats().departures, pooled.stats().departures);
    EXPECT_EQ(serial.stats().uploads_lost, pooled.stats().uploads_lost);
    EXPECT_EQ(serial.stats().uploads_accepted, pooled.stats().uploads_accepted);
    EXPECT_EQ(serial.stats().upload_bytes_full + serial.stats().upload_bytes_delta,
              pooled.stats().upload_bytes_full + pooled.stats().upload_bytes_delta);
    // Both faults must actually fire, or this test is vacuously green.
    EXPECT_GT(serial.stats().departures, 0u);
    EXPECT_GT(serial.stats().uploads_lost, 0u);
    EXPECT_EQ(serial.stats().uploads_retried, 0u);
  }
}

TEST(FleetFaults, CrashAndResumeComposeWithFaults) {
  // A fleet with active dropout and corruption, killed after round 1 and
  // restarted on its ring, must land on exactly the uninterrupted run's
  // bytes and fault counts - the fault draws replay identically because
  // they are keyed by (round, device, attempt), not by process history.
  const std::string prefix = test::unique_temp_path("nextgov_faulty_fleet_ring");
  FleetServerOptions options = dropout_and_corruption();
  FleetServer uninterrupted{workload::AppId::kFacebook, options, {.workers = 2}};
  uninterrupted.run_rounds(3);
  ASSERT_NE(uninterrupted.global(), nullptr);

  options.snapshot_ring = 2;
  options.snapshot_prefix = prefix;
  {
    FleetServer doomed{workload::AppId::kFacebook, options, {.workers = 2}};
    doomed.run_rounds(2);
  }  // destroyed without drain(): kill -9
  FleetServer resumed{workload::AppId::kFacebook, options, {.workers = 2}};
  ASSERT_TRUE(resumed.restored());
  EXPECT_EQ(resumed.round(), 2u);
  resumed.run_rounds(1);
  ASSERT_NE(resumed.global(), nullptr);
  EXPECT_TRUE(*resumed.global() == *uninterrupted.global());
  EXPECT_EQ(resumed.stats().total_decisions, uninterrupted.stats().total_decisions);
  EXPECT_EQ(resumed.stats().departures, uninterrupted.stats().departures);
  EXPECT_EQ(resumed.stats().uploads_lost, uninterrupted.stats().uploads_lost);
  EXPECT_EQ(resumed.stats().uploads_accepted, uninterrupted.stats().uploads_accepted);
  EXPECT_GT(uninterrupted.stats().departures + uninterrupted.stats().uploads_lost, 0u);
}

TEST(FleetFaults, DropoutActuallyDropsDevicesAndChangesTheRun) {
  // Per-round dropout is a departure that rejoins the next round: the
  // dropped device trains nothing that round, which must cost training
  // data and change the learned table relative to a calm fleet.
  FleetServerOptions options = churny_server();
  options.churn.straggle_rate = 0.0;
  options.churn.upload_fail_rate = 0.0;
  FleetServer dropping{workload::AppId::kFacebook, options, {.workers = 2}};
  dropping.run_rounds(3);
  options.churn.depart_rate = 0.0;
  FleetServer calm{workload::AppId::kFacebook, options, {.workers = 2}};
  calm.run_rounds(3);
  ASSERT_NE(dropping.global(), nullptr);
  ASSERT_NE(calm.global(), nullptr);
  EXPECT_GT(dropping.stats().departures, 0u);
  EXPECT_EQ(calm.stats().departures, 0u);
  EXPECT_LT(dropping.stats().total_decisions, calm.stats().total_decisions);
  EXPECT_NE(canonical_bytes(*dropping.global()), canonical_bytes(*calm.global()));
}

TEST(FleetFaults, CorruptedUploadsAreRejectedNotAbsorbed) {
  // Every single-byte flip of a real upload blob, on the full and the delta
  // path and with small, high-bit and all-bit masks, either decodes to the
  // sender's exact table or throws SerializeError - never another table,
  // never another exception type. The high-bit masks reach the top byte of
  // the container's section count, which the server's damage draws can
  // flip and which must be refused before it sizes an allocation.
  // The tables are a device's cold round and its next round warm-started
  // from the first - the shape of a real full and delta upload.
  const auto train = [](const rl::QTable* warm) {
    TrainingPlan plan;
    TrainingOptions cell;
    cell.max_duration = SimTime::from_seconds(5.0);
    cell.seed = 4242;
    cell.initial_table = warm;
    plan.add(workload::AppId::kFacebook, core::NextConfig{}, cell);
    return execute(plan).front().table;
  };
  const rl::QTable cold = train(nullptr);
  const rl::QTable base = strip_visit_mass(cold);
  const rl::QTable warm = train(&base);
  for (const rl::QTable* delta_base : {static_cast<const rl::QTable*>(nullptr), &base}) {
    const rl::QTable& table = delta_base == nullptr ? cold : warm;
    const std::vector<std::uint8_t> blob = encode_upload(table, delta_base);
    ASSERT_EQ(SnapshotReader(blob, "test").has("delta"), delta_base != nullptr);
    for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}, std::uint8_t{0xFF}}) {
      std::size_t absorbed = 0;
      for (std::size_t i = 0; i < blob.size(); ++i) {
        std::vector<std::uint8_t> bad = blob;
        bad[i] ^= mask;
        try {
          if (!(decode_upload(std::move(bad), delta_base, "flip") == table)) ++absorbed;
        } catch (const SerializeError&) {
        }
      }
      EXPECT_EQ(absorbed, 0u) << "mask " << int{mask} << (delta_base ? " delta" : " full");
    }
  }

  // End to end: at a high per-attempt failure rate with a single attempt,
  // damaged uploads are lost, the rest merge, and the server keeps serving.
  FleetServerOptions options = churny_server();
  options.churn = {};
  options.churn.upload_fail_rate = 0.5;
  options.max_upload_attempts = 1;
  FleetServer lossy{workload::AppId::kFacebook, options, {.workers = 2}};
  lossy.run_rounds(3);
  EXPECT_GT(lossy.stats().uploads_lost, 0u);
  EXPECT_EQ(lossy.stats().uploads_retried, 0u);
  EXPECT_EQ(lossy.stats().uploads_accepted + lossy.stats().uploads_lost, 3 * options.devices);
  ASSERT_NE(lossy.global(), nullptr);
  EXPECT_GT(lossy.global()->state_count(), 0u);
}

TEST(FleetFaults, RoundStatsReportFaults) {
  // The per-round stats account for every fault the cumulative counters
  // saw: departures, retries, losses, and quorum plus late merges adding
  // up to the accepted uploads.
  FleetServer server{workload::AppId::kFacebook, churny_server(), {.workers = 2}};
  std::vector<FleetServerRoundStats> rounds;
  server.run_rounds(4, [&](const FleetServerRoundStats& rs) { rounds.push_back(rs); });
  std::uint64_t departures = 0;
  std::uint64_t retries = 0;
  std::uint64_t lost = 0;
  std::uint64_t late = 0;
  std::uint64_t accepted = 0;
  for (const auto& rs : rounds) {
    departures += rs.departures;
    retries += rs.retries;
    lost += rs.lost_uploads;
    late += rs.late_merged;
    accepted += rs.quorum + rs.late_merged;
  }
  const FleetServerStats stats = server.stats();
  EXPECT_EQ(departures, stats.departures);
  EXPECT_EQ(retries, stats.uploads_retried);
  EXPECT_EQ(lost, stats.uploads_lost);
  EXPECT_EQ(late, stats.late_uploads_merged);
  EXPECT_EQ(accepted, stats.uploads_accepted);
  EXPECT_GT(departures, 0u);
  EXPECT_GT(retries, 0u);
}

}  // namespace
}  // namespace nextgov::sim
