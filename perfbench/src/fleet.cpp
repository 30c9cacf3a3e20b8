// fleet.cpp - fleet_churn: the fleet server's round (north-star path 4).
//
// A FleetServer with 16 devices, short rounds and churn (departures and
// stragglers), delta uploads and a snapshot ring under the benchmark's
// scratch directory. Set-up builds the server
// and runs warm-up rounds so the global table has grown; the timed phase
// is a fixed number of rounds, each timed around run_round; then fresh
// servers are restored from the ring and must match the live one.
//
// The traced run repeats the rounds on a second server and, around each
// round, replays the round's layers through their public functions: the
// round's TrainingPlan through run_training_plan_batched (warm-started from
// strip_visit_mass of the global table), encode_upload / decode_upload of
// the trained tables, merge_q_tables over a quorum-sized input, and
// FleetServer::drain (an idempotent re-write of the boundary snapshot).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "alloc_count.hpp"
#include "rl/federated.hpp"
#include "sim/fleet.hpp"
#include "sim/fleet_server.hpp"
#include "workload/apps.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace nextgov;

constexpr std::size_t kWarmRounds = 4;
/// About 22 s of rounds on the reference host, most of the 30 s budget;
/// a fixed count, so the round-level counts repeat at a fixed seed.
constexpr std::size_t kTimedRounds = 150;
constexpr std::size_t kRestores = 5;
constexpr int kSetupRepeats = 9;
/// The server trains its devices in one thread. Its rounds ran no faster
/// with a two-thread pool, and their time spread three times as much
/// across runs on a shared 4-vCPU host.
constexpr std::size_t kFleetWorkers = 1;
constexpr workload::AppId kFleetApp = workload::AppId::kFacebook;

sim::FleetServerOptions fleet_options(std::uint64_t seed, const std::string& ring_prefix) {
  sim::FleetServerOptions o;
  o.devices = 16;
  o.round_duration = SimTime::from_seconds(10.0);
  o.round_deadline = SimTime::from_seconds(30.0);
  o.episode_length = SimTime::from_seconds(10.0);
  o.base_seed = sim::derive_seed(seed, 3000);
  o.churn.seed = sim::derive_seed(seed, 3001);
  o.churn.depart_rate = 0.05;
  o.churn.straggle_rate = 0.1;
  o.snapshot_ring = 3;
  o.snapshot_prefix = ring_prefix;
  o.delta_uploads = true;
  // No damaged uploads (churn.upload_fail_rate stays 0): a flipped byte in
  // an upload's section count makes decode_upload throw std::bad_alloc,
  // which escapes run_round (see perfbench/README.md).
  return o;
}

std::uint64_t wire_attempts(const sim::FleetServerStats& s) {
  return s.uploads_full + s.uploads_delta;
}

/// A fresh ring directory (emptied if a previous run left it behind).
std::string fresh_ring(const RunArgs& args, const std::string& tag) {
  const std::filesystem::path dir = std::filesystem::path{args.scratch} /
                                    ("fleet-" + std::to_string(::getpid()) + "-" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return (dir / "ring").string();
}

struct Built {
  std::unique_ptr<sim::FleetServer> server;
  std::string prefix;
};

Built build_server(const RunArgs& args, const std::string& tag) {
  Built b;
  b.prefix = fresh_ring(args, tag);
  b.server = std::make_unique<sim::FleetServer>(kFleetApp, fleet_options(args.seed, b.prefix),
                                                sim::RunnerOptions{.workers = kFleetWorkers});
  b.server->run_rounds(kWarmRounds);
  return b;
}

struct RoundLog {
  std::vector<double> wall_s;
  std::vector<sim::FleetServerRoundStats> stats;
  std::uint64_t allocations{0};
  std::uint64_t attempts{0};
};

/// One timed round; `log` collects the wall time and the round's stats.
void timed_round(sim::FleetServer& server, RoundLog& log) {
  const std::uint64_t a0 = allocations();
  const std::uint64_t w0 = wire_attempts(server.stats());
  const std::int64_t t0 = now_ns();
  server.run_round([&](const sim::FleetServerRoundStats& rs) { log.stats.push_back(rs); });
  log.wall_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  log.allocations += allocations() - a0;
  log.attempts += wire_attempts(server.stats()) - w0;
}

/// What the replays add up to across rounds.
struct ReplayTotals {
  sim::BatchPhaseTimings phases;  ///< the replayed training's engine phases
  std::uint64_t decisions{0};
  std::int64_t session_ticks{0};
  std::size_t codec_calls{0};
};

/// Replays round `r`'s layers after it ran (see the file comment), one
/// span per layer call.
void replay_round(sim::FleetServer& server, std::size_t r, const std::optional<rl::QTable>& warm,
                  const sim::FleetServerRoundStats& rs, Trace& trace, Checks& checks,
                  ReplayTotals& totals) {
  const sim::FleetServerOptions& o = server.options();
  sim::TrainingPlan plan;
  for (std::size_t d = 0; d < rs.training_devices; ++d) {
    sim::TrainingOptions cell;
    cell.max_duration = o.round_duration;
    cell.episode_length = o.episode_length;
    cell.seed = sim::derive_seed(sim::derive_seed(o.base_seed, d), r);
    cell.ambient = o.ambient;
    cell.initial_table = warm ? &*warm : nullptr;
    plan.add(kFleetApp, o.next_config, cell);
  }
  if (plan.empty()) return;
  const rl::QTable* base = warm ? &*warm : nullptr;

  sim::BatchPhaseTimings phases;
  std::int64_t t0 = now_ns();
  const auto trained = sim::run_training_plan_batched(
      plan, {.workers = kFleetWorkers, .max_batch = 0, .phase_timings = &phases});
  trace.add("sim.round_train", t0, now_ns());
  totals.phases.pre_s += phases.pre_s;
  totals.phases.power_s += phases.power_s;
  totals.phases.thermal_s += phases.thermal_s;
  totals.phases.observe_s += phases.observe_s;
  totals.phases.post_s += phases.post_s;
  totals.phases.ticks += phases.ticks;
  totals.session_ticks += static_cast<std::int64_t>(plan.size()) * (o.round_duration.us() / 1000);
  for (const sim::TrainingResult& t : trained) totals.decisions += t.decisions;

  std::vector<std::vector<std::uint8_t>> blobs;
  blobs.reserve(trained.size());
  t0 = now_ns();
  for (const sim::TrainingResult& t : trained) blobs.push_back(sim::encode_upload(t.table, base));
  trace.add("sim.encode_upload", t0, now_ns());

  std::vector<rl::QTable> decoded;
  decoded.reserve(blobs.size());
  t0 = now_ns();
  for (auto& blob : blobs) decoded.push_back(sim::decode_upload(std::move(blob), base, "replay"));
  trace.add("sim.decode_upload", t0, now_ns());
  bool round_trip = true;
  for (std::size_t i = 0; i < decoded.size(); ++i) round_trip &= decoded[i] == trained[i].table;
  checks.expect(round_trip, "fleet_churn: decode_upload(encode_upload(t)) != t");

  const std::size_t quorum = std::clamp<std::size_t>(rs.quorum, 1, decoded.size());
  std::vector<const rl::QTable*> inputs;
  for (std::size_t i = 0; i < quorum; ++i) inputs.push_back(&decoded[i]);
  const std::vector<double> staleness(quorum, 0.0);
  t0 = now_ns();
  const rl::QTable merged = rl::merge_q_tables(inputs, staleness, o.merge_policy);
  trace.add("rl.merge", t0, now_ns());
  checks.expect(merged.state_count() > 0, "fleet_churn: replayed merge is empty");

  t0 = now_ns();
  server.drain();
  trace.add("common.snapshot_write", t0, now_ns());
  totals.codec_calls += blobs.size();
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

void summarize_rounds(const RoundLog& log, RunResult& out) {
  double devices = 0, quorum = 0, reward = 0, bytes = 0;
  for (const auto& rs : log.stats) {
    devices += static_cast<double>(rs.training_devices);
    quorum += static_cast<double>(rs.quorum);
    reward += rs.mean_reward;
    bytes += static_cast<double>(rs.upload_bytes);
  }
  const double n = static_cast<double>(log.stats.size());
  const double round_s = fleet_options(0, "").round_duration.seconds();
  out.measured.add("op_ms_p50", median(log.wall_s) * 1e3, "ms");
  out.measured.add("op_samples", n, "count");
  out.measured.add("sim_s_per_host_s", devices * round_s / sum(log.wall_s), "sim-s/s");
  out.measured.add("mean_reward", reward / n, "reward");
  out.measured.add("sim.quorum_frac", quorum / devices, "fraction");
  out.measured.add("sim.upload_bytes_per_round", bytes / n, "B");
}

}  // namespace

void run_fleet_churn(const RunArgs& args, RunResult& out) {
  // Set-up, several times: a fresh server plus warm-up rounds; the global
  // tables must come out identical.
  std::vector<double> setup_s;
  Built live;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t t0 = now_ns();
    Built b = build_server(args, "setup" + std::to_string(rep));
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (rep > 0) {
      out.checks.expect(b.server->global() != nullptr && live.server->global() != nullptr &&
                            *b.server->global() == *live.server->global(),
                        "fleet_churn: repeated set-up built a different global table");
      std::filesystem::remove_all(std::filesystem::path{b.prefix}.parent_path());
      continue;
    }
    live = std::move(b);
  }
  out.measured.add("setup_s", median(setup_s), "s");

  RoundLog log;
  const sim::FleetServerStats before = live.server->stats();
  for (std::size_t i = 0; i < kTimedRounds; ++i) timed_round(*live.server, log);
  const sim::FleetServerStats& after = live.server->stats();
  summarize_rounds(log, out);
  for (const auto& rs : log.stats) {
    out.checks.expect(rs.quorum <= rs.training_devices &&
                          rs.late_merged <= live.server->options().devices &&
                          std::isfinite(rs.mean_reward),
                      "fleet_churn: round stats out of range");
  }

  // Restores: fresh servers from the ring must resume exactly the live state.
  live.server->drain();
  std::vector<double> restore_s;
  for (std::size_t i = 0; i < kRestores; ++i) {
    const std::int64_t t0 = now_ns();
    const sim::FleetServer restored{kFleetApp, live.server->options(),
                                    sim::RunnerOptions{.workers = kFleetWorkers}};
    restore_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    out.checks.expect(restored.restored() && restored.round() == live.server->round() &&
                          restored.global() != nullptr &&
                          *restored.global() == *live.server->global(),
                      "fleet_churn: restored server differs from the live one");
  }
  out.measured.add("common.restore_s_p50", median(restore_s), "s");
  out.measured.add("common.restore_samples", static_cast<double>(restore_s.size()), "count");
  std::vector<double> walls = log.wall_s;
  const double p50 = percentile(walls, 50).value_or(NAN);
  const double p90 = percentile(walls, 90).value_or(NAN);
  out.measured.add("sim.round_s_p90", p90, "s");
  out.measured.add("sim.op_p90_over_p50", p90 / p50, "ratio");

  const double n = static_cast<double>(kTimedRounds);
  out.measured.add("core.decisions",
                   static_cast<double>(after.total_decisions - before.total_decisions), "count");
  out.measured.add("rl.states", static_cast<double>(live.server->global()->state_count()),
                   "count");
  out.measured.add("sim.allocs_per_round", static_cast<double>(log.allocations) / n, "count");
  out.measured.add("sim.upload_attempts", static_cast<double>(log.attempts) / n, "count");
  out.measured.add("sim.uploads_retried",
                   static_cast<double>(after.uploads_retried - before.uploads_retried) / n,
                   "count");
  out.measured.add("sim.uploads_lost",
                   static_cast<double>(after.uploads_lost - before.uploads_lost) / n, "count");
  out.measured.add("sim.uploads_delta_frac",
                   static_cast<double>(after.uploads_delta - before.uploads_delta) /
                       static_cast<double>(log.attempts),
                   "fraction");
  const std::string last_entry = live.prefix + "." +
                                 std::to_string((live.server->round() - 1) %
                                                live.server->options().snapshot_ring);
  out.measured.add("common.ring_entry_bytes",
                   static_cast<double>(std::filesystem::file_size(last_entry)), "B");

  if (args.trace) {
    // The same rounds on a second server, each followed by its replay.
    Built traced = build_server(args, "traced");
    RoundLog traced_log;
    ReplayTotals totals;
    for (std::size_t i = 0; i < kTimedRounds; ++i) {
      std::optional<rl::QTable> warm;
      if (traced.server->global() != nullptr) warm = sim::strip_visit_mass(*traced.server->global());
      const std::size_t r = traced.server->round();
      const std::int64_t t0 = now_ns();
      timed_round(*traced.server, traced_log);
      out.trace.add("sim.run_round", t0, now_ns());
      replay_round(*traced.server, r, warm, traced_log.stats.back(), out.trace, out.checks, totals);
    }
    out.checks.expect(*traced.server->global() == *live.server->global(),
                      "fleet_churn: traced server diverged from the live one");

    // Engine layers of the replayed training, per lock-step session-step.
    const sim::BatchPhaseTimings& ph = totals.phases;
    const auto per_step = [&](double phase_s) {
      return phase_s * 1e9 / static_cast<double>(ph.ticks);
    };
    out.measured.add("workload_render.ns_per_step", per_step(ph.pre_s), "ns");
    out.measured.add("soc.power_ns_per_step", per_step(ph.power_s), "ns");
    out.measured.add("thermal.rc_ns_per_step", per_step(ph.thermal_s), "ns");
    out.measured.add("governors.observe_ns_per_step", per_step(ph.observe_s), "ns");
    out.measured.add("core.post_ns_per_step", per_step(ph.post_s), "ns");
    out.measured.add("core.ns_per_decision",
                     ph.post_s * 1e9 / static_cast<double>(totals.decisions), "ns");
    out.measured.add("sim.lockstep_frac",
                     static_cast<double>(ph.ticks) / static_cast<double>(totals.session_ticks),
                     "fraction");

    // The round's own layers, as shares of the untraced round.
    const auto by_name = out.trace.self_ns_by_name();
    const auto seconds = [&](std::string_view span) {
      return static_cast<double>(by_name.find(span)->second) * 1e-9;
    };
    const double calls = static_cast<double>(totals.codec_calls);
    const double train_s = seconds("sim.round_train") / n;
    const double encode_s = seconds("sim.encode_upload") / calls;
    const double decode_s = seconds("sim.decode_upload") / calls;
    const double merge_s = seconds("rl.merge") / n;
    const double write_s = seconds("common.snapshot_write") / n;
    // The codec runs once per upload attempt in a real round.
    const double codec_s = (encode_s + decode_s) * static_cast<double>(log.attempts) / n;
    const double round_s = sum(log.wall_s) / n;
    out.measured.add("sim.round_train_s", train_s, "s");
    out.measured.add("sim.encode_upload_us", encode_s * 1e6, "us");
    out.measured.add("sim.decode_upload_us", decode_s * 1e6, "us");
    out.measured.add("rl.merge_ms", merge_s * 1e3, "ms");
    out.measured.add("common.snapshot_write_ms", write_s * 1e3, "ms");
    out.measured.add("sim.train_pct", 100.0 * train_s / round_s, "%");
    out.measured.add("sim.codec_pct", 100.0 * codec_s / round_s, "%");
    out.measured.add("rl.merge_pct", 100.0 * merge_s / round_s, "%");
    out.measured.add("common.snapshot_write_pct", 100.0 * write_s / round_s, "%");
    const double layers_s = train_s + codec_s + merge_s + write_s;
    const double traced_round_s = sum(traced_log.wall_s) / n;
    out.measured.add("trace.remainder_pct", 100.0 * (round_s - layers_s) / round_s, "%");
    out.measured.add("trace.overhead_pct", 100.0 * (traced_round_s - round_s) / round_s, "%");
    std::filesystem::remove_all(std::filesystem::path{traced.prefix}.parent_path());
  }
  const std::string dir = std::filesystem::path{live.prefix}.parent_path().string();
  live.server.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
