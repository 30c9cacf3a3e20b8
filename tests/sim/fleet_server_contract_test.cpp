// Randomized contracts for the fleet server (sim/fleet_server.hpp). Every
// other fleet-server test pins one hand-built option set; this one draws
// seeded option sets across the valid space - fleet size, ring size, churn
// rates (exact 0 included), retry budget, rejoin delay, deadlines from the
// smallest valid one up - and holds each draw to every contract at once:
//   * the same global bytes, per-round stats, stats() and ring files at 1
//     and 3 workers;
//   * a server destroyed at a random boundary and rebuilt on its ring
//     matches the uninterrupted one, down to every ring entry;
//   * the per-round stats add up to the lifetime counters, every
//     trainee's upload is accounted for, and only rounds without a warm
//     base upload in full;
//   * a flipped byte in a random ring slot is quarantined, and the server
//     resumes from the newest intact boundary and catches up bit for bit.
// The draws must between them reach a carried upload, a lost upload, a
// departure, a quarantine and a restore (asserted at the end).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "sim/fleet_server.hpp"
#include "temp_path.hpp"

namespace nextgov::sim {
namespace {

constexpr std::uint64_t kDrawSeed = 0xF1EE7C0DEu;
constexpr std::size_t kDraws = 32;
constexpr std::size_t kPooledWorkers = 3;

std::uint64_t pick(SplitMix64& rng, std::uint64_t lo, std::uint64_t hi) {
  return lo + rng.next() % (hi - lo + 1);
}

SimTime pick_ms(SplitMix64& rng, std::uint64_t lo, std::uint64_t hi) {
  return SimTime::from_ms(static_cast<std::int64_t>(pick(rng, lo, hi)));
}

/// A churn rate in [0, 0.5]: exactly 0 for a quarter of the draws.
double fault_rate(SplitMix64& rng) {
  if (rng.next() % 4 == 0) return 0.0;
  return 0.5 * static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

struct Draw {
  FleetServerOptions options;
  std::size_t rounds{0};
  std::size_t crash_at{0};  ///< boundary the interrupted run is destroyed at
  std::uint64_t flip{0};    ///< picks the damaged slot, byte and bit pattern
};

Draw draw_fleet(std::size_t index) {
  SplitMix64 rng{derive_seed(kDrawSeed, index)};
  Draw d;
  FleetServerOptions& o = d.options;
  o.devices = pick(rng, 1, 12);
  const std::uint64_t duration_ms = pick(rng, 1000, 10000);
  o.round_duration = SimTime::from_ms(static_cast<std::int64_t>(duration_ms));
  o.episode_length = pick_ms(rng, 500, duration_ms);
  o.heartbeat_period = pick_ms(rng, 500, 3000);
  o.lease_timeout = o.heartbeat_period + pick_ms(rng, 0, 5000);
  o.upload_latency = pick_ms(rng, 0, 2000);
  o.retry_backoff = pick_ms(rng, 500, 4000);
  o.max_upload_attempts = static_cast<std::uint32_t>(pick(rng, 1, 5));
  // The smallest deadline validate_fleet_server_options accepts, then
  // (three draws in four) up to two round durations more.
  const SimTime smallest = std::max(o.round_duration + o.upload_latency + SimTime{1},
                                    o.round_duration + o.lease_timeout);
  o.round_deadline = smallest;
  if (rng.next() % 4 != 0) o.round_deadline = smallest + pick_ms(rng, 0, 2 * duration_ms);
  o.base_seed = rng.next();
  o.churn.seed = rng.next();
  o.churn.depart_rate = fault_rate(rng);
  o.churn.straggle_rate = fault_rate(rng);
  o.churn.upload_fail_rate = fault_rate(rng);
  o.churn.rejoin_after_rounds = pick(rng, 1, 3);
  o.snapshot_ring = pick(rng, 0, 4);
  d.rounds = pick(rng, 2, 6);
  d.crash_at = pick(rng, 1, d.rounds - 1);
  d.flip = rng.next();
  return d;
}

/// Everything a round reports but its host wall time.
auto observable(const FleetServerRoundStats& s) {
  return std::make_tuple(s.round, s.training_devices, s.departures, s.rejoined, s.quorum,
                         s.late_merged, s.carried_late, s.retries, s.lost_uploads,
                         s.global_states, s.mean_reward, s.upload_bytes, s.delta_uploads);
}

auto observable(const FleetServerStats& s) {
  return std::make_tuple(s.rounds_served, s.uploads_accepted, s.uploads_retried, s.uploads_lost,
                         s.late_uploads_merged, s.departures, s.total_decisions,
                         s.upload_bytes_full, s.upload_bytes_delta, s.uploads_full,
                         s.uploads_delta, s.rejoins, s.snapshots_written, s.snapshots_failed,
                         s.snapshots_quarantined);
}

std::vector<std::uint8_t> global_bytes(const FleetServer& server) {
  ByteWriter out;
  if (server.global() != nullptr) server.global()->serialize(out);
  return out.data();
}

std::vector<char> read_all(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct Run {
  std::vector<FleetServerRoundStats> rounds;
  FleetServerStats stats;
  std::vector<std::uint8_t> global;
};

Run run_uninterrupted(const FleetServerOptions& options, std::size_t workers,
                      std::size_t rounds) {
  FleetServer server{workload::AppId::kFacebook, options, {.workers = workers}};
  Run run;
  server.run_rounds(rounds, [&](const FleetServerRoundStats& rs) { run.rounds.push_back(rs); });
  run.stats = server.stats();
  run.global = global_bytes(server);
  return run;
}

void expect_same_rounds(const std::vector<FleetServerRoundStats>& want,
                        const std::vector<FleetServerRoundStats>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(observable(want[i]), observable(got[i])) << "round " << i;
  }
}

void expect_same_ring(const Draw& d, const std::string& want, const std::string& got) {
  for (std::size_t slot = 0; slot < d.options.snapshot_ring; ++slot) {
    const std::string a = want + "." + std::to_string(slot);
    const std::string b = got + "." + std::to_string(slot);
    ASSERT_EQ(std::filesystem::exists(a), std::filesystem::exists(b)) << "slot " << slot;
    if (std::filesystem::exists(a)) {
      EXPECT_EQ(read_all(a), read_all(b)) << "slot " << slot;
    }
  }
}

/// The per-round stats add up to the lifetime counters, and every trainee's
/// upload ends accepted, lost, still pending, or (a late arrival after the
/// device's fresher upload landed) redundant.
void expect_counters_reconcile(const Draw& d, const Run& run) {
  const FleetServerStats& s = run.stats;
  std::uint64_t trainees = 0, departures = 0, rejoined = 0, accepted = 0, late = 0, retries = 0,
                lost = 0, bytes = 0, deltas = 0;
  for (const FleetServerRoundStats& rs : run.rounds) {
    trainees += rs.training_devices;
    departures += rs.departures;
    rejoined += rs.rejoined;
    accepted += rs.quorum + rs.late_merged;
    late += rs.late_merged;
    retries += rs.retries;
    lost += rs.lost_uploads;
    bytes += rs.upload_bytes;
    deltas += rs.delta_uploads;
  }
  EXPECT_EQ(s.rounds_served, d.rounds);
  EXPECT_EQ(departures, s.departures);
  EXPECT_EQ(rejoined, s.rejoins);
  EXPECT_EQ(accepted, s.uploads_accepted);
  EXPECT_EQ(late, s.late_uploads_merged);
  EXPECT_EQ(retries, s.uploads_retried);
  EXPECT_EQ(lost, s.uploads_lost);
  EXPECT_EQ(bytes, s.upload_bytes_full + s.upload_bytes_delta);
  EXPECT_EQ(deltas, s.uploads_delta);

  const std::uint64_t pending = run.rounds.back().carried_late;
  const std::uint64_t attempts = s.uploads_full + s.uploads_delta;
  ASSERT_LE(accepted + lost + pending, trainees);
  // Every attempt either arrives intact (accepted or redundant) or is
  // damaged (retried or, on the last allowed attempt, lost).
  EXPECT_GE(attempts, accepted + retries);
  EXPECT_LE(attempts, trainees - pending + retries);
  const auto& churn = d.options.churn;
  if (churn.upload_fail_rate == 0.0) {
    // No damage: each upload that left the device made one attempt, and the
    // only losses are pending uploads whose device's lease expired.
    EXPECT_EQ(retries, 0u);
    EXPECT_EQ(attempts, trainees - lost - pending);
  }
  // One wire path: only the trainees of a round without a warm base (no
  // aggregate yet when it started) upload in full, each at most once per
  // allowed attempt. Without damage or departures each makes exactly one
  // attempt, and it lands by the close of the round after next (a
  // straggler starts at most 1.5 deadlines late).
  std::uint64_t cold_trainees = 0;
  std::size_t last_cold = 0;
  for (std::size_t r = 0; r < run.rounds.size(); ++r) {
    if (r > 0 && run.rounds[r - 1].global_states > 0) continue;
    cold_trainees += run.rounds[r].training_devices;
    last_cold = r;
  }
  EXPECT_LE(s.uploads_full, cold_trainees * d.options.max_upload_attempts);
  if (churn.upload_fail_rate == 0.0) {
    EXPECT_LE(s.uploads_full, cold_trainees);
  }
  if (churn.upload_fail_rate == 0.0 && churn.depart_rate == 0.0 && last_cold + 3 <= d.rounds) {
    EXPECT_EQ(s.uploads_full, cold_trainees);
  }
  if (churn.upload_fail_rate == 0.0 && churn.straggle_rate == 0.0) {
    // Every upload lands in its own round: none carries, none is redundant.
    EXPECT_EQ(pending, 0u);
    EXPECT_EQ(accepted + lost, trainees);
  }
}

/// [offset, offset + size) of each section payload in a snapshot file: the
/// bytes the section CRCs guard.
std::vector<std::pair<std::size_t, std::size_t>> section_payloads(const std::vector<char>& file) {
  const std::vector<std::uint8_t> bytes(file.begin(), file.end());
  ByteReader in{bytes, "ring entry"};
  (void)in.u32();  // magic
  (void)in.u32();  // version
  const std::uint32_t count = in.u32();
  std::vector<std::pair<std::size_t, std::size_t>> payloads;
  for (std::uint32_t i = 0; i < count; ++i) {
    (void)in.str();
    const auto size = static_cast<std::size_t>(in.u64());
    (void)in.u32();  // CRC
    if (size > 0) payloads.emplace_back(in.pos(), size);
    in.skip(size);
  }
  return payloads;
}

/// Branches the draws reached between them.
struct Reach {
  std::size_t carried{0}, lost{0}, departed{0}, quarantined{0}, restored{0};
};

void check_draw(std::size_t index, Reach& reach) {
  const Draw d = draw_fleet(index);
  FleetServerOptions options = d.options;
  const bool ring = options.snapshot_ring > 0;
  const std::string tag = "contract" + std::to_string(index);
  if (ring) options.snapshot_prefix = test::unique_temp_path(tag + "_serial");
  const Run serial = run_uninterrupted(options, 1, d.rounds);
  expect_counters_reconcile(d, serial);
  for (const FleetServerRoundStats& rs : serial.rounds) reach.carried += rs.carried_late;
  reach.lost += serial.stats.uploads_lost;
  reach.departed += serial.stats.departures;

  FleetServerOptions pooled_options = options;
  if (ring) pooled_options.snapshot_prefix = test::unique_temp_path(tag + "_pooled");
  const Run pooled = run_uninterrupted(pooled_options, kPooledWorkers, d.rounds);
  EXPECT_EQ(serial.global, pooled.global);
  expect_same_rounds(serial.rounds, pooled.rounds);
  EXPECT_EQ(observable(serial.stats), observable(pooled.stats));
  if (!ring) return;
  expect_same_ring(d, options.snapshot_prefix, pooled_options.snapshot_prefix);

  // kill -9 at boundary crash_at, then a rebuild on the same ring.
  FleetServerOptions crash_options = options;
  crash_options.snapshot_prefix = test::unique_temp_path(tag + "_crash");
  std::vector<FleetServerRoundStats> rounds;
  const auto collect = [&](const FleetServerRoundStats& rs) { rounds.push_back(rs); };
  {
    FleetServer first{workload::AppId::kFacebook, crash_options, {.workers = kPooledWorkers}};
    first.run_rounds(d.crash_at, collect);
  }
  {
    FleetServer resumed{workload::AppId::kFacebook, crash_options, {.workers = kPooledWorkers}};
    ASSERT_TRUE(resumed.restored());
    ASSERT_EQ(resumed.round(), d.crash_at);
    ++reach.restored;
    resumed.run_rounds(d.rounds - d.crash_at, collect);
    EXPECT_EQ(global_bytes(resumed), serial.global);
  }
  expect_same_rounds(serial.rounds, rounds);
  expect_same_ring(d, options.snapshot_prefix, crash_options.snapshot_prefix);

  // A flipped byte in one slot's section payload. The slots hold the last
  // boundaries; the server must quarantine the damaged one and resume from
  // the newest intact boundary (or cold, when none is left).
  const std::size_t kept = std::min(options.snapshot_ring, d.rounds);
  const std::size_t damaged_boundary = d.rounds - d.flip % kept;
  const std::string damaged =
      crash_options.snapshot_prefix + "." +
      std::to_string(damaged_boundary % options.snapshot_ring);
  {
    std::vector<char> file = read_all(damaged);
    const auto payloads = section_payloads(file);
    ASSERT_FALSE(payloads.empty());
    SplitMix64 rng{d.flip};
    const auto [offset, size] = payloads[rng.next() % payloads.size()];
    file[offset + rng.next() % size] ^= static_cast<char>(1 + rng.next() % 255);
    std::ofstream out{damaged, std::ios::binary | std::ios::trunc};
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
  }
  std::size_t resume_at = 0;
  for (std::size_t b = d.rounds - kept + 1; b <= d.rounds; ++b) {
    if (b != damaged_boundary) resume_at = b;
  }
  FleetServer resumed{workload::AppId::kFacebook, crash_options, {.workers = 1}};
  EXPECT_EQ(resumed.stats().snapshots_quarantined, 1u);
  EXPECT_FALSE(std::filesystem::exists(damaged));
  EXPECT_TRUE(std::filesystem::exists(damaged + ".corrupt"));
  EXPECT_EQ(resumed.restored(), resume_at > 0);
  ASSERT_EQ(resumed.round(), resume_at);
  reach.quarantined += resumed.stats().snapshots_quarantined;
  resumed.run_rounds(d.rounds - resume_at);
  EXPECT_EQ(global_bytes(resumed), serial.global);
}

TEST(FleetServerContract, RandomFleetsKeepEveryContract) {
  Reach reach;
  for (std::size_t i = 0; i < kDraws; ++i) {
    SCOPED_TRACE("draw " + std::to_string(i));
    check_draw(i, reach);
  }
  RecordProperty("carried", std::to_string(reach.carried));
  RecordProperty("lost", std::to_string(reach.lost));
  RecordProperty("departed", std::to_string(reach.departed));
  RecordProperty("quarantined", std::to_string(reach.quarantined));
  RecordProperty("restored", std::to_string(reach.restored));
  EXPECT_GT(reach.carried, 0u) << "no draw carried an upload across a deadline";
  EXPECT_GT(reach.lost, 0u) << "no draw lost an upload";
  EXPECT_GT(reach.departed, 0u) << "no draw saw a departure";
  EXPECT_GT(reach.quarantined, 0u) << "no draw quarantined a ring slot";
  EXPECT_GT(reach.restored, 0u) << "no draw restored from its ring";
}

}  // namespace
}  // namespace nextgov::sim
