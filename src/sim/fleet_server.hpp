// fleet_server.hpp - the federated fleet server, the repo's one fleet
// trainer.
//
// The paper's Section IV-C has devices train locally while a cloud service
// averages their Q-tables. A real fleet server runs indefinitely: devices
// come and go mid-round, uploads arrive late, damaged or not at all, and
// the process itself must survive being killed. FleetServer is that
// server, still fully deterministic: it advances a *simulated* clock
// through an event loop whose every stochastic element (departures,
// stragglers, upload failures) draws from seeded per-(round, device,
// attempt) streams, so two servers with the same options produce
// bit-identical Q-tables regardless of worker count, host, or how often the
// process was restarted in between. With no churn configured it is plain
// synchronous FedAvg: every device trains every round and every upload
// lands before the deadline.
//
// One round r occupies simulated time [r*round_deadline, (r+1)*round_deadline):
//
//   * registration & leases - every device registers at construction and
//     holds its lease by heartbeating every heartbeat_period. A departing
//     device (seeded draw) stops heartbeating at a seeded instant inside
//     the round; its lease expires lease_timeout after the last heartbeat,
//     the server discards the device's in-flight round (it never
//     contributes a partial table) and drops any of its still-pending
//     uploads. The device re-registers rejoin_after_rounds rounds later
//     (1 = it simply misses the round, i.e. per-round dropout). Until then
//     the staleness weighting simply ages its last accepted upload - the
//     merge math already absorbs the gap;
//   * training - every leased, non-departing device trains for
//     round_duration of simulated device time (one plan through execute(),
//     warm-started from the current global aggregate with visit mass
//     stripped - see strip_visit_mass). Memory rule: each trainee's table
//     becomes its held form (below) as soon as its cell ends, so a round
//     holds at most one full table per worker thread, whatever the fleet
//     size;
//   * uploads - each trained table travels as CRC-guarded snapshot bytes
//     (sim/fleet.hpp's wire codec) in the one form the server holds it: a
//     delta against the warm table it trained from, or the full table when
//     it has none - whichever round the upload lands in. A failed attempt
//     (seeded draw; damage is a byte flip or truncation, always caught by
//     the container's CRC/length checks) retries with bounded exponential
//     backoff + deterministic jitter, up to max_upload_attempts before the
//     table is lost. Stragglers (seeded draw) add a large delay before
//     their first attempt;
//   * straggler deadline & graceful degradation - the round closes at its
//     deadline no matter what: the server merges whatever quorum arrived
//     (staleness-weighted via rl::merge_q_tables, where a device's upload
//     ages by the rounds since it trained), carries still-in-flight
//     uploads into the next round instead of dropping them (they merge
//     late, with their honest staleness), and never stalls the fleet on
//     any one device;
//   * snapshot ring - every round boundary persists the complete server
//     state (FleetSnapshot: global + per-device uploads + leases + pending
//     uploads + clock + counters) to
//     `<snapshot_prefix>.<round mod snapshot_ring>`, keeping the last K
//     boundaries. The server keeps that state as one FleetSnapshot member
//     and serializes it in place. Each upload is held in one form, made
//     once as soon as its training cell ends: a delta against the warm
//     table it trained from (the one its wire upload carries), which the
//     state keeps as a warm base for as long as some standing or pending
//     upload names it, or the full table when there is no base. The merge
//     reads a delta over its base, and nothing rebuilds the table. So the
//     server's memory, like an entry, holds the global, a few warm bases
//     and one small delta per upload, not a full table per device. A
//     boundary whose write fails (IoError) is logged, counted in
//     snapshots_failed and skipped; the ring keeps its older boundaries
//     and the server keeps serving.
//     Startup reads every ring slot's container - one that fails its CRCs
//     is quarantined (renamed to `<path>.corrupt` via quarantine_snapshot),
//     one taken under other options throws - and keeps only its round
//     cursor. It then decodes slots newest-first until one restores; each
//     newer slot whose state does not decode into one this server can
//     resume is quarantined on the way, and older slots are never decoded.
//     So a restore holds one decoded state beside its file's bytes, and a
//     kill -9 at any point loses at most the round in progress - and
//     replaying that round from the boundary is bit-identical to never
//     having died. Crash/resume is therefore nothing more than destroying
//     the server and constructing it again on the same ring. Pinned by
//     tests/sim/fleet_server_golden_test.cpp and the fleet_serverd CI
//     crash-recovery smoke.
//
// examples/fleet_serverd.cpp wraps this in a daemon with SIGINT/SIGTERM
// drain and examples/federated_training.cpp runs a calm fleet end to end;
// perfbench's fleet_churn workload measures round latency, ring-entry cost
// and upload losses under churn.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "rl/federated.hpp"
#include "sim/fleet.hpp"
#include "sim/runner.hpp"

namespace nextgov::sim {

/// Seeded churn injection for a fleet-server run: who departs, who
/// straggles, whose uploads fail. All draws are deterministic in
/// (seed, round, device[, attempt]) - independent of worker count and of
/// each other - so a churning run is exactly as reproducible as a calm one.
struct FleetChurnPlan {
  std::uint64_t seed{0xC4A2u};
  /// Per-(device, round) probability the device stops heartbeating at a
  /// seeded instant inside the round: its lease expires, it trains nothing,
  /// its pending uploads are dropped, and it re-registers
  /// rejoin_after_rounds rounds later.
  double depart_rate{0.0};
  /// Rounds a departed device stays away before re-registering.
  std::size_t rejoin_after_rounds{2};
  /// Per-(device, round) probability the device's upload starts late enough
  /// (seeded delay of at least half a round) to usually miss the deadline
  /// and carry into the next round.
  double straggle_rate{0.0};
  /// Per-attempt probability an upload arrives damaged (byte flip or
  /// truncation, alternating by draw - always caught by the CRC/length
  /// checks) and must retry with exponential backoff.
  double upload_fail_rate{0.0};
};

struct FleetServerOptions {
  std::size_t devices{8};
  /// Per-device simulated training time per round.
  SimTime round_duration{SimTime::from_seconds(180.0)};
  /// Simulated length of one server round - the straggler deadline. The
  /// round closes at this wall regardless of who has arrived. Must leave
  /// room for a clean upload (round_duration + upload_latency) and for any
  /// lease expiry to resolve inside the round (round_duration +
  /// lease_timeout), so a boundary snapshot never holds a half-expired
  /// lease.
  SimTime round_deadline{SimTime::from_seconds(240.0)};
  /// App restart cadence inside a round (TrainingOptions::episode_length).
  SimTime episode_length{SimTime::from_seconds(60.0)};
  /// A leased device heartbeats this often; departure is detected at the
  /// last heartbeat before the seeded departure instant + lease_timeout.
  SimTime heartbeat_period{SimTime::from_seconds(5.0)};
  SimTime lease_timeout{SimTime::from_seconds(15.0)};
  /// Simulated transfer time of one upload attempt.
  SimTime upload_latency{SimTime::from_seconds(2.0)};
  /// Backoff after a failed attempt a (0-based) is
  /// retry_backoff * 2^a + jitter, jitter a seeded draw in [0, retry_backoff),
  /// both terms saturated at kMaxUploadRetryDelay (see retry_delay_us).
  SimTime retry_backoff{SimTime::from_seconds(4.0)};
  std::uint32_t max_upload_attempts{4};
  /// Device d trains round r with seed derive_seed(derive_seed(base_seed, d), r),
  /// so episodes never replay across rounds.
  std::uint64_t base_seed{2020};
  core::NextConfig next_config{};
  Celsius ambient{Celsius{21.0}};
  rl::StalenessMergePolicy merge_policy{};
  FleetChurnPlan churn{};
  /// Keep the last K round-boundary snapshots as
  /// `<snapshot_prefix>.<round mod K>`. 0 = no persistence.
  std::size_t snapshot_ring{0};
  std::string snapshot_prefix{};

  // --- perfbench compatibility shim: begin ----------------------------------
  // perfbench/ sets this retired wire switch. Nothing reads it: every upload
  // travels in the form the server holds it (see run_round).
  bool delta_uploads{false};
  // --- perfbench compatibility shim: end ------------------------------------
};

/// Hard ceiling on one retry's delay (exponential backoff plus jitter,
/// each clamped to this independently). An hour of simulated time is ~15
/// default round deadlines - any retry pushed further out than that is
/// carried across rounds just the same, so capping here costs nothing
/// observable while keeping the delay arithmetic overflow-free for *any*
/// configured retry_backoff (see retry_delay_us).
inline constexpr SimTime kMaxUploadRetryDelay = SimTime::from_seconds(3600.0);

/// Simulated delay before upload attempt `attempt + 1` after attempt
/// `attempt` (0-based) failed: retry_backoff * 2^attempt, doubling
/// saturated at kMaxUploadRetryDelay, plus a jitter term `jitter_draw`
/// reduced modulo the *clamped* base backoff - so the result is positive,
/// at most 2 * kMaxUploadRetryDelay.us(), and no intermediate value can
/// overflow regardless of how large retry_backoff was configured.
[[nodiscard]] std::int64_t retry_delay_us(SimTime retry_backoff, std::uint32_t attempt,
                                          std::uint64_t jitter_draw) noexcept;

/// Validates geometry/timing/churn/persistence fields and throws a
/// descriptive ConfigError on the first violation. The FleetServer
/// constructor calls this up front.
void validate_fleet_server_options(const FleetServerOptions& options);

/// Canonical byte encoding of every FleetServerOptions field that
/// determines the trajectory (everything except the snapshot ring
/// geometry, which may be relocated between restarts). Stored inside each
/// ring snapshot and compared on restore, so a server restarted under
/// different options refuses to resume instead of silently diverging.
void encode_fleet_server_options(const FleetServerOptions& options, ByteWriter& out);

/// Per-round progress snapshot, handed to the progress callback after each
/// round closes (post-merge, post-snapshot).
struct FleetServerRoundStats {
  std::size_t round{0};
  std::size_t training_devices{0};  ///< leased, non-departing devices that trained
  std::size_t departures{0};        ///< leases expired mid-round
  std::size_t rejoined{0};          ///< departed devices that re-registered
  std::size_t quorum{0};            ///< this round's tables that beat the deadline
  std::size_t late_merged{0};       ///< earlier rounds' tables accepted this round
  std::size_t carried_late{0};      ///< uploads still in flight at the close
  std::size_t retries{0};           ///< failed attempts rescheduled this round
  std::size_t lost_uploads{0};      ///< tables dropped (attempts exhausted / lease expiry)
  std::size_t global_states{0};     ///< state count of the global aggregate
  double mean_reward{0.0};          ///< mean device reward of this round's trainees
  double wall_seconds{0.0};         ///< host wall-clock for this round
  std::uint64_t upload_bytes{0};    ///< wire bytes of this round's upload attempts
  std::size_t delta_uploads{0};     ///< attempts this round that went as deltas
};
using FleetServerProgressFn = std::function<void(const FleetServerRoundStats&)>;

/// Cumulative server statistics. The counters that determine replay or
/// reporting continuity (everything through `uploads_delta`) are persisted
/// in the snapshot ring; the per-process fields below them restart at zero
/// after a resume. FleetServer::stats() assembles a copy on each call.
struct FleetServerStats {
  std::uint64_t rounds_served{0};
  std::uint64_t uploads_accepted{0};
  std::uint64_t uploads_retried{0};
  std::uint64_t uploads_lost{0};
  std::uint64_t late_uploads_merged{0};
  std::uint64_t departures{0};
  std::uint64_t total_decisions{0};
  // --- upload wire accounting (persisted via the "sync_state" section;
  // counts every attempt put on the wire, including ones later damaged) ---
  std::uint64_t upload_bytes_full{0};
  std::uint64_t upload_bytes_delta{0};
  std::uint64_t uploads_full{0};
  std::uint64_t uploads_delta{0};
  // --- per-process (not persisted) ---
  std::uint64_t rejoins{0};
  std::size_t snapshots_written{0};
  /// Round boundaries whose ring write failed (an IoError: a full disk, a
  /// failed rename). run_round logs and skips the slot and keeps serving.
  std::size_t snapshots_failed{0};
  /// Corrupt ring entries skipped at restore (renamed to `<path>.corrupt`
  /// unless the rename itself failed, which is logged): every slot whose
  /// container fails its CRCs or has no readable round cursor, and every
  /// slot newer than the restored one whose state does not decode or fit
  /// the server. Older slots are never decoded, so they are not counted.
  std::size_t snapshots_quarantined{0};
};

/// The long-running fleet server. Construct it (restoring from the
/// snapshot ring when one is configured and holds a valid entry), then
/// call run_round()/run_rounds() as long as the process lives; drain()
/// persists a final boundary snapshot for a clean shutdown. Destroying
/// the server without drain() models kill -9: the next construction
/// resumes from the last ring boundary bit-identically.
class FleetServer {
 public:
  /// `exec` is how each round's training plan runs (worker threads). Pure
  /// execution strategy - the round's merged tables are
  /// bit-identical under any value (pinned by
  /// tests/sim/fleet_server_test.cpp), so it is not part of the options
  /// identity a ring entry pins: a ring written under one ExecOptions
  /// resumes under any other.
  FleetServer(AppFactory app_factory, const FleetServerOptions& options,
              const ExecOptions& exec = {});
  FleetServer(workload::AppId app, const FleetServerOptions& options,
              const ExecOptions& exec = {});

  /// Executes one full round (train, event loop to the deadline, merge,
  /// ring snapshot) and advances the simulated clock to the next boundary.
  /// A ring write that fails does not fail the round: the slot is skipped,
  /// logged and counted in FleetServerStats::snapshots_failed.
  void run_round(const FleetServerProgressFn& progress = {});
  void run_rounds(std::size_t n, const FleetServerProgressFn& progress = {});

  /// Persists the current round boundary to the ring (no-op without a
  /// configured ring). Idempotent; called by the daemon on SIGINT/SIGTERM.
  /// Unlike run_round it throws the write's IoError, so a shutdown whose
  /// final boundary did not land is reported.
  void drain();

  /// Next round to execute (== rounds completed since round 0).
  [[nodiscard]] std::size_t round() const noexcept { return state_.next_round; }
  /// Current global aggregate; nullptr before the first accepted upload.
  [[nodiscard]] const rl::QTable* global() const noexcept {
    return state_.last_aggregate.has_value() ? &*state_.last_aggregate : nullptr;
  }
  /// The persisted counters of the current state plus this process's own.
  [[nodiscard]] FleetServerStats stats() const noexcept;
  /// True when construction restored state from the snapshot ring.
  [[nodiscard]] bool restored() const noexcept { return restored_; }
  [[nodiscard]] const FleetServerOptions& options() const noexcept { return options_; }

 private:
  void restore_from_ring();
  void write_ring_snapshot();
  [[nodiscard]] std::string ring_path(std::size_t slot) const;

  AppFactory app_factory_;
  FleetServerOptions options_;
  ExecOptions exec_;

  /// Everything a ring entry persists, in the form it is written in: the
  /// round cursor and clock, leases, each device's last accepted upload
  /// (the staleness merge input) and pending uploads with their ring
  /// deltas, the warm bases those deltas name, the global aggregate and the
  /// persisted counters. write_ring_snapshot serializes it in place; a
  /// restore adopts a decoded one whole.
  FleetSnapshot state_;
  // Per-process counters, restarted at zero by a resume.
  std::uint64_t rejoins_{0};
  std::size_t snapshots_written_{0};
  std::size_t snapshots_failed_{0};
  std::size_t snapshots_quarantined_{0};
  bool restored_{false};
};

}  // namespace nextgov::sim
