// fleet_serverd - the long-running fleet server as a daemon.
//
// Wraps sim::FleetServer in a process with real signal semantics:
//
//   * SIGINT/SIGTERM request a clean drain - the server finishes the round
//     in progress, persists a final boundary snapshot to the ring, and
//     exits 0 (1 when that final write fails; a failed ring write after
//     an ordinary round is logged and skipped, and serving goes on);
//   * SIGKILL (kill -9) obviously gets no courtesy - which is the point:
//     on the next start the daemon restores from the newest valid ring
//     entry (quarantining any corrupt one to `<path>.corrupt`) and the
//     finished run's Q-tables are byte-identical to a run that was never
//     killed. The CI crash-recovery smoke asserts exactly that with cmp.
//
//   usage: example_fleet_serverd [--rounds N] [--ring PREFIX] [--ring-size K]
//                                [--out TABLE.bin] [--round-sleep-ms M]
//                                [--seed S] [--devices D]
//
//   --rounds 0 runs until a signal arrives. --round-sleep-ms throttles the
//   loop in host time so an external kill can land mid-run (the simulated
//   clock is unaffected). --out writes the final global Q-table's canonical
//   bytes, the file the smoke step compares across interrupted and
//   uninterrupted runs; a failed or short write exits 1.
//
// Churn is on by default (departures + stragglers + upload failures in the
// same run), so every recovery exercised here crosses the full lease /
// retry / carry-over machinery, not a calm fleet.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.hpp"
#include "sim/fleet_server.hpp"
#include "workload/apps.hpp"

namespace {

std::atomic<bool> g_stop{false};

void request_stop(int) { g_stop.store(true); }

using nextgov::parse_count;  // strict: rejects "-5" (strtoul silently wrapped it)

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--rounds N] [--ring PREFIX] [--ring-size K] [--out TABLE.bin]\n"
               "          [--round-sleep-ms M] [--seed S] [--devices D]\n"
               "       N = 0 runs until SIGINT/SIGTERM (clean drain).\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nextgov;

  std::size_t rounds = 5;
  std::size_t ring_size = 3;
  std::size_t sleep_ms = 0;
  std::size_t seed = 2020;
  std::size_t devices = 4;
  std::string ring_prefix = "fleet_server.snap";
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const auto flag = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
    };
    if (flag("--rounds") && parse_count(argv[++i], rounds)) continue;
    if (flag("--ring-size") && parse_count(argv[++i], ring_size)) continue;
    if (flag("--round-sleep-ms") && parse_count(argv[++i], sleep_ms)) continue;
    if (flag("--seed") && parse_count(argv[++i], seed)) continue;
    if (flag("--devices") && parse_count(argv[++i], devices)) continue;
    if (flag("--ring")) {
      ring_prefix = argv[++i];
      continue;
    }
    if (flag("--out")) {
      out_path = argv[++i];
      continue;
    }
    return usage(argv[0]);
  }
  if (ring_size == 0 || devices == 0) return usage(argv[0]);

  sim::FleetServerOptions options;
  options.devices = devices;
  options.round_duration = SimTime::from_seconds(20.0);
  options.round_deadline = SimTime::from_seconds(40.0);
  options.episode_length = SimTime::from_seconds(10.0);
  options.heartbeat_period = SimTime::from_seconds(2.0);
  options.lease_timeout = SimTime::from_seconds(5.0);
  options.upload_latency = SimTime::from_seconds(1.0);
  options.retry_backoff = SimTime::from_seconds(2.0);
  options.base_seed = seed;
  options.churn.depart_rate = 0.25;
  options.churn.straggle_rate = 0.3;
  options.churn.upload_fail_rate = 0.3;
  options.churn.rejoin_after_rounds = 1;
  options.snapshot_ring = ring_size;
  options.snapshot_prefix = ring_prefix;

  std::signal(SIGINT, request_stop);
  std::signal(SIGTERM, request_stop);

  sim::FleetServer server{workload::AppId::kFacebook, options, {}};
  if (server.restored()) {
    std::printf("fleet_serverd: restored round %zu from ring '%s' (ring size %zu)\n",
                server.round(), ring_prefix.c_str(), ring_size);
  } else {
    std::printf("fleet_serverd: cold start, ring '%s' (ring size %zu)\n",
                ring_prefix.c_str(), ring_size);
  }

  while ((rounds == 0 || server.round() < rounds) && !g_stop.load()) {
    server.run_round([](const sim::FleetServerRoundStats& rs) {
      std::printf("  round %zu: trained %zu, quorum %zu, late %zu, carried %zu, "
                  "departed %zu, retries %zu, lost %zu -> %zu global states "
                  "(reward %.3f, %.2f s)\n",
                  rs.round, rs.training_devices, rs.quorum, rs.late_merged,
                  rs.carried_late, rs.departures, rs.retries, rs.lost_uploads,
                  rs.global_states, rs.mean_reward, rs.wall_seconds);
      std::fflush(stdout);
    });
    if (sleep_ms > 0 && (rounds == 0 || server.round() < rounds)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
  }

  // SIGINT/SIGTERM or round budget: either way, drain cleanly. A round
  // whose ring write failed kept serving (counted below); a final boundary
  // that does not land exits 1.
  try {
    server.drain();
  } catch (const IoError& e) {
    std::fprintf(stderr, "fleet_serverd: final boundary not persisted: %s\n", e.what());
    return 1;
  }
  const sim::FleetServerStats stats = server.stats();
  std::printf("fleet_serverd: drained at round %zu (accepted %llu, retried %llu, "
              "lost %llu, late %llu, departures %llu, quarantined %zu, "
              "failed ring writes %zu)\n",
              server.round(), static_cast<unsigned long long>(stats.uploads_accepted),
              static_cast<unsigned long long>(stats.uploads_retried),
              static_cast<unsigned long long>(stats.uploads_lost),
              static_cast<unsigned long long>(stats.late_uploads_merged),
              static_cast<unsigned long long>(stats.departures),
              stats.snapshots_quarantined, stats.snapshots_failed);

  if (!out_path.empty()) {
    if (server.global() == nullptr) {
      std::fprintf(stderr, "fleet_serverd: no global table yet, cannot write %s\n",
                   out_path.c_str());
      return 1;
    }
    ByteWriter bytes;
    server.global()->serialize(bytes);
    std::FILE* f = std::fopen(out_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "fleet_serverd: cannot write %s\n", out_path.c_str());
      return 1;
    }
    const bool ok = std::fwrite(bytes.data().data(), 1, bytes.size(), f) == bytes.size();
    if (std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "fleet_serverd: short write to %s\n", out_path.c_str());
      return 1;
    }
    std::printf("fleet_serverd: wrote %zu canonical table bytes to %s\n", bytes.size(),
                out_path.c_str());
  }
  return 0;
}
