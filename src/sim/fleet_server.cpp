#include "sim/fleet_server.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"

namespace nextgov::sim {

namespace {

// --- churn draws -----------------------------------------------------------
//
// Every draw opens its own SplitMix64 stream keyed by
// derive_seed chains over (churn seed ^ salt, round, device[, attempt]), so
// draws are independent of each other, of worker count, and of how many
// rounds the process has replayed - a restarted server redraws the exact
// same churn.

constexpr std::uint64_t kDepartSalt = 0xDE9Au;
constexpr std::uint64_t kStraggleSalt = 0x57A6u;
constexpr std::uint64_t kUploadFailSalt = 0xF41Cu;

constexpr const char* kServerOptionsSection = "fleet_server_options";

SplitMix64 churn_stream(std::uint64_t seed, std::uint64_t salt, std::size_t round,
                        std::size_t device) {
  return SplitMix64{derive_seed(derive_seed(seed ^ salt, round), device)};
}

SplitMix64 attempt_stream(std::uint64_t seed, std::size_t round, std::size_t device,
                          std::uint32_t attempt) {
  return SplitMix64{derive_seed(
      derive_seed(derive_seed(seed ^ kUploadFailSalt, round), device), attempt)};
}

bool bernoulli(SplitMix64& sm, double rate) {
  const double u = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  return u < rate;
}

/// Damages an encoded upload in-place (even draws flip a byte, odd draws
/// truncate - both always detected by the container's CRC/length checks).
void damage_blob(std::vector<std::uint8_t>& blob, SplitMix64& sm) {
  const std::uint64_t kind = sm.next();
  if (blob.empty()) return;
  if (kind % 2 == 0) {
    const std::size_t at = static_cast<std::size_t>(sm.next() % blob.size());
    blob[at] ^= static_cast<std::uint8_t>(1 + sm.next() % 255);
  } else {
    blob.resize(blob.size() / 2);
  }
}

// --- the round's event loop ------------------------------------------------

struct Event {
  std::int64_t t_us{0};
  enum Kind : int { kLeaseExpiry = 0, kUploadArrival = 1 };
  int kind{kUploadArrival};
  std::size_t device{0};
  std::size_t trained_round{0};
  std::uint32_t attempt{0};
  std::size_t table{0};  ///< arena index (upload events only)
};

/// Min-heap order: time, then a total tiebreak so processing order is
/// deterministic (lease expiries before arrivals at the same instant - an
/// upload from a device whose lease just died must not land).
bool later(const Event& a, const Event& b) {
  return std::tie(a.t_us, a.kind, a.device, a.trained_round, a.attempt) >
         std::tie(b.t_us, b.kind, b.device, b.trained_round, b.attempt);
}

/// Whether `held` is a delta against the warm base of `round`.
bool names_base(const HeldTable& held, std::size_t round) {
  const auto* ring = std::get_if<RingDelta>(&held);
  return ring != nullptr && ring->base_round == round;
}

/// Drops the warm bases that no standing or pending upload's delta names
/// any more.
void drop_unreferenced_bases(FleetSnapshot& state) {
  const auto referenced = [&](std::size_t round) {
    for (const auto& u : state.uploads) {
      if (u.has_value() && names_base(u->held, round)) return true;
    }
    for (const PendingUpload& p : state.pending_uploads) {
      if (names_base(p.held, round)) return true;
    }
    return false;
  };
  std::erase_if(state.warm_bases, [&](const WarmBase& b) { return !referenced(b.round); });
}

/// The warm base a held delta names. Every delta the server holds names a
/// base it keeps: the reader checks a restored one, and a base is dropped
/// only after its last delta goes.
const rl::QTable& base_of(const FleetSnapshot& state, const RingDelta& ring) {
  const WarmBase* base = find_warm_base(state.warm_bases, ring.base_round);
  NEXTGOV_ASSERT(base != nullptr);
  return base->table;
}

// --- ring restore ----------------------------------------------------------

/// Throws SerializeError unless `snap` is a state a server with `options`
/// can resume: a round whose close still fits the simulated clock's int64
/// microseconds, one lease and one upload slot per device, every pending
/// upload addressed to a real device, and no table from a round the
/// boundary has not reached (its staleness would wrap around).
void check_resumable(const FleetSnapshot& snap, const FleetServerOptions& options) {
  const auto fail = [](const std::string& why) {
    throw SerializeError("fleet snapshot does not fit the server: " + why);
  };
  const std::size_t devices = options.devices;
  const auto rounds_in_clock = static_cast<std::uint64_t>(
      std::numeric_limits<std::int64_t>::max() / options.round_deadline.us());
  if (snap.next_round >= rounds_in_clock) {
    fail("round " + std::to_string(snap.next_round) + " lies past the simulated clock");
  }
  if (snap.leases.size() != devices || snap.uploads.size() != devices) {
    fail(std::to_string(snap.leases.size()) + " leases / " +
         std::to_string(snap.uploads.size()) + " upload slots for " +
         std::to_string(devices) + " devices");
  }
  for (const auto& upload : snap.uploads) {
    if (upload.has_value() && upload->round >= snap.next_round) {
      fail("an upload from round " + std::to_string(upload->round) + " at boundary " +
           std::to_string(snap.next_round));
    }
  }
  for (const PendingUpload& p : snap.pending_uploads) {
    if (p.device >= devices) fail("a pending upload for device " + std::to_string(p.device));
    if (p.trained_round >= snap.next_round) {
      fail("a pending upload from round " + std::to_string(p.trained_round) + " at boundary " +
           std::to_string(snap.next_round));
    }
  }
}

// --- the round's stages ----------------------------------------------------
//
// run_round runs these in order. Each takes the server state it reads and
// changes and reports into the round's stats.

/// Stage 1, re-registration: departed devices whose absence has run its
/// course take a fresh lease before round r starts.
void rejoin_devices(FleetSnapshot& state, std::size_t r, FleetServerRoundStats& rs) {
  for (DeviceLease& lease : state.leases) {
    if (!lease.active && lease.rejoin_round <= r) {
      lease = DeviceLease{};
      ++rs.rejoined;
    }
  }
}

/// What round r's churn draws decide.
struct RoundDraws {
  std::vector<std::size_t> trainees;           ///< leased devices that stay, in device order
  std::vector<std::int64_t> first_attempt_us;  ///< per trainee: its first upload attempt
  std::vector<Event> expiries;                 ///< the departing devices' lease expiries
};

/// Stage 2, churn draws. A departing device stops heartbeating at a seeded
/// instant inside its training window and loses its lease until it
/// rejoins; the server notices at the last heartbeat + lease_timeout. It
/// never contributes a partial table - its training cell is simply not
/// scheduled (the result could never be uploaded, and a pure-function
/// fleet has no half-trained state to leak). A straggler's first upload
/// attempt starts late.
RoundDraws draw_churn(FleetSnapshot& state, const FleetServerOptions& o, std::size_t r,
                      std::int64_t round_start) {
  RoundDraws draws;
  for (std::size_t d = 0; d < o.devices; ++d) {
    if (!state.leases[d].active) continue;
    SplitMix64 depart = churn_stream(o.churn.seed, kDepartSalt, r, d);
    if (bernoulli(depart, o.churn.depart_rate)) {
      const std::int64_t depart_us =
          round_start +
          static_cast<std::int64_t>(depart.next() %
                                    static_cast<std::uint64_t>(o.round_duration.us()));
      const std::int64_t last_heartbeat =
          round_start +
          ((depart_us - round_start) / o.heartbeat_period.us()) * o.heartbeat_period.us();
      draws.expiries.push_back(
          Event{last_heartbeat + o.lease_timeout.us(), Event::kLeaseExpiry, d, r, 0, 0});
      state.leases[d].active = false;
      state.leases[d].rejoin_round = r + o.churn.rejoin_after_rounds;
      continue;
    }
    std::int64_t start = round_start + o.round_duration.us();
    SplitMix64 straggle = churn_stream(o.churn.seed, kStraggleSalt, r, d);
    if (bernoulli(straggle, o.churn.straggle_rate)) {
      // At least half a round late: usually past the deadline, so the
      // table carries into the next round and merges with staleness 1.
      start += o.round_deadline.us() / 2 +
               static_cast<std::int64_t>(straggle.next() %
                                         static_cast<std::uint64_t>(o.round_deadline.us()));
    }
    draws.trainees.push_back(d);
    draws.first_attempt_us.push_back(start + o.upload_latency.us());
  }
  return draws;
}

/// What a round's training leaves: every trainee's table in the one form
/// the server holds it, in plan order, and what the trainees report.
struct TrainedRound {
  std::vector<HeldTable> held;
  double reward_sum{0.0};  ///< the trainees' final mean rewards, summed in plan order
  std::uint64_t decisions{0};
};

/// Stage 3, training: every trainee trains for round_duration of simulated
/// time - one homogeneous plan, warm-started from the global aggregate
/// (visit mass stripped so historical experience is counted once, via the
/// aggregate, not once per device). The warm table joins the state's bases
/// as round r's; it stays there while some upload held as a delta against
/// it is. Each trainee's table is turned into the form the server holds it
/// on the worker thread that trained it, as soon as its cell ends: the
/// delta against the warm table, or the full table when there is no base
/// or try_make_delta refuses. Its wire upload sends that form, every ring
/// entry stores it and the merge reads it (a delta over its base). The
/// full table goes with its TrainingResult, so at most exec.workers full
/// tables are alive at once, whatever the fleet size.
TrainedRound train_round(FleetSnapshot& state, const FleetServerOptions& o,
                         const AppFactory& app_factory, const ExecOptions& exec, std::size_t r,
                         const std::vector<std::size_t>& trainees) {
  const rl::QTable* warm = nullptr;
  if (state.last_aggregate.has_value()) {
    state.warm_bases.push_back(WarmBase{r, strip_visit_mass(*state.last_aggregate)});
    warm = &state.warm_bases.back().table;
  }
  TrainingPlan plan;
  for (const std::size_t d : trainees) {
    TrainingOptions cell;
    cell.max_duration = o.round_duration;
    cell.episode_length = o.episode_length;
    cell.seed = derive_seed(derive_seed(o.base_seed, d), r);
    cell.ambient = o.ambient;
    cell.initial_table = warm;
    plan.add(app_factory, "device_" + std::to_string(d), o.next_config, cell);
  }
  // exec may fan the plan out across worker threads - bit-identical either
  // way, so snapshots and goldens are oblivious to the choice. Each cell
  // writes only its own slots; the sums run in plan order once the pool
  // has drained.
  std::vector<std::optional<HeldTable>> held(plan.size());
  std::vector<double> rewards(plan.size());
  std::vector<std::uint64_t> decisions(plan.size());
  execute(plan, exec, [&](std::size_t i, TrainingResult&& result) {
    rewards[i] = result.final_mean_reward;
    decisions[i] = result.decisions;
    std::optional<rl::QTableDelta> delta;
    if (warm != nullptr) delta = rl::try_make_delta(*warm, result.table);
    if (delta.has_value()) {
      held[i].emplace(RingDelta{r, std::move(*delta)});
    } else {
      held[i].emplace(std::move(result.table));
    }
  });
  TrainedRound out;
  out.held.reserve(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    out.held.push_back(std::move(*held[i]));
    out.reward_sum += rewards[i];
    out.decisions += decisions[i];
  }
  return out;
}

/// A round's traffic: the events still to happen and the held tables their
/// upload events name by index.
struct RoundTraffic {
  std::vector<Event> heap;
  std::vector<HeldTable> arena;
};

/// Seeds round r's traffic: the lease expiries, each trainee's first upload
/// attempt and, with their persisted arrival times and attempt counters, the
/// uploads pending from earlier rounds (moved out of `state`), so a
/// restarted server replays exactly the same arrivals.
RoundTraffic seed_traffic(FleetSnapshot& state, RoundDraws draws, std::vector<HeldTable> trained,
                          std::size_t r) {
  RoundTraffic t{std::move(draws.expiries), std::move(trained)};
  for (std::size_t i = 0; i < draws.trainees.size(); ++i) {
    t.heap.push_back(
        Event{draws.first_attempt_us[i], Event::kUploadArrival, draws.trainees[i], r, 0, i});
  }
  for (PendingUpload& p : state.pending_uploads) {
    t.arena.push_back(std::move(p.held));
    t.heap.push_back(Event{p.arrival_us, Event::kUploadArrival, p.device, p.trained_round,
                           p.attempts_used, t.arena.size() - 1});
  }
  state.pending_uploads.clear();
  return t;
}

/// Stage 4, the event loop: processes lease expiries and upload arrivals in
/// simulated-time order until the straggler deadline `round_close`, and
/// returns how many uploads it accepted. What is still in flight stays in
/// `t`.
std::size_t deliver_uploads(FleetSnapshot& state, const FleetServerOptions& o, std::size_t r,
                            std::int64_t round_close, RoundTraffic& t,
                            FleetServerRoundStats& rs) {
  FleetSnapshot::ServerCounters& counters = state.server_counters;
  std::vector<Event>& heap = t.heap;
  std::make_heap(heap.begin(), heap.end(), later);
  std::size_t accepted = 0;
  while (!heap.empty() && heap.front().t_us < round_close) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Event ev = heap.back();
    heap.pop_back();
    state.server_clock_us = ev.t_us;
    if (ev.kind == Event::kLeaseExpiry) {
      // The departed device's in-flight uploads die with its lease.
      std::size_t dropped = 0;
      for (const Event& other : heap) {
        if (other.kind == Event::kUploadArrival && other.device == ev.device) ++dropped;
      }
      if (dropped > 0) {
        heap.erase(std::remove_if(heap.begin(), heap.end(),
                                  [&](const Event& other) {
                                    return other.kind == Event::kUploadArrival &&
                                           other.device == ev.device;
                                  }),
                   heap.end());
        std::make_heap(heap.begin(), heap.end(), later);
        counters.uploads_lost += dropped;
        rs.lost_uploads += dropped;
      }
      ++counters.departures;
      ++rs.departures;
      continue;
    }
    // Upload arrival: the table travels as CRC-guarded snapshot bytes, in
    // the form the server holds it - a delta against its warm base (still
    // kept, since this upload names it), or the full table. A seeded
    // per-attempt failure damages the bytes in flight, the decode throws,
    // and the device retries with exponential backoff + jitter.
    HeldTable& held = t.arena[ev.table];
    const auto* ring = std::get_if<RingDelta>(&held);
    const rl::QTable* base = nullptr;
    std::vector<std::uint8_t> blob;
    if (ring != nullptr) {
      base = &base_of(state, *ring);
      blob = encode_delta_upload(ring->delta);
      state.sync.upload_bytes_delta += blob.size();
      ++state.sync.uploads_delta;
      ++rs.delta_uploads;
    } else {
      blob = encode_upload(std::get<rl::QTable>(held), nullptr);
      state.sync.upload_bytes_full += blob.size();
      ++state.sync.uploads_full;
    }
    rs.upload_bytes += blob.size();
    if (o.churn.upload_fail_rate > 0.0) {
      SplitMix64 fate = attempt_stream(o.churn.seed, ev.trained_round, ev.device, ev.attempt);
      if (bernoulli(fate, o.churn.upload_fail_rate)) damage_blob(blob, fate);
    }
    // Bytes that decode intact carry exactly the held table, so the server
    // keeps the form it holds; the decode only tells damage apart.
    bool intact = true;
    try {
      (void)decode_upload_payload(std::move(blob), base,
                                  "upload from device " + std::to_string(ev.device));
    } catch (const SerializeError&) {
      intact = false;  // damaged in flight: the upload retries
    }
    if (!intact) {
      const std::uint32_t next_attempt = ev.attempt + 1;
      if (next_attempt >= o.max_upload_attempts) {
        ++counters.uploads_lost;
        ++rs.lost_uploads;
        continue;
      }
      SplitMix64 jitter =
          attempt_stream(o.churn.seed ^ 0x1u, ev.trained_round, ev.device, ev.attempt);
      const std::int64_t delay = retry_delay_us(o.retry_backoff, ev.attempt, jitter.next());
      heap.push_back(Event{ev.t_us + delay, Event::kUploadArrival, ev.device, ev.trained_round,
                           next_attempt, ev.table});
      std::push_heap(heap.begin(), heap.end(), later);
      ++counters.uploads_retried;
      ++rs.retries;
      continue;
    }
    // Accepted. Only a strictly fresher table replaces a device's standing
    // upload (a very late round-k arrival after round-(k+1) already landed
    // is redundant, not a regression).
    std::optional<FleetUpload>& standing = state.uploads[ev.device];
    if (!standing.has_value() || standing->round < ev.trained_round) {
      standing = FleetUpload{std::move(held), ev.trained_round};
      ++counters.uploads_accepted;
      ++accepted;
      if (ev.trained_round < r) {
        ++counters.late_uploads_merged;
        ++rs.late_merged;
      } else {
        ++rs.quorum;
      }
    }
  }
  return accepted;
}

/// Stage 5, the straggler deadline: whatever is still in flight carries
/// into the next round as persisted PendingUploads - merged late rather
/// than dropped, and never allowed to stall this round's close. They are
/// carried in arrival order; the events are sorted, not the uploads that
/// own their tables.
void carry_in_flight(FleetSnapshot& state, RoundTraffic t, FleetServerRoundStats& rs) {
  std::sort(t.heap.begin(), t.heap.end(),
            [](const Event& a, const Event& b) { return later(b, a); });
  for (const Event& ev : t.heap) {
    NEXTGOV_ASSERT(ev.kind == Event::kUploadArrival);  // expiries resolve in-round
    state.pending_uploads.push_back(PendingUpload{ev.device, ev.trained_round, ev.t_us,
                                                  ev.attempt, std::move(t.arena[ev.table])});
  }
  rs.carried_late = state.pending_uploads.size();
}

/// Stage 6, the graceful-degradation merge: the staleness-weighted
/// aggregate of every device's last accepted upload, aged by how many
/// rounds ago it trained. Departed and straggling devices lean on their
/// older uploads, exactly as the merge math intends. A delta-held upload is
/// read over its warm base, never rebuilt.
void merge_uploads(FleetSnapshot& state, const FleetServerOptions& o, std::size_t r) {
  std::vector<rl::MergeInput> inputs;
  std::vector<double> staleness;
  for (const auto& upload : state.uploads) {
    if (!upload.has_value()) continue;
    if (const auto* ring = std::get_if<RingDelta>(&upload->held)) {
      inputs.push_back(rl::MergeInput{&base_of(state, *ring), &ring->delta});
    } else {
      inputs.push_back(rl::MergeInput{&std::get<rl::QTable>(upload->held)});
    }
    staleness.push_back(static_cast<double>(r - upload->round));
  }
  state.last_aggregate = rl::merge_q_tables(inputs, staleness, o.merge_policy);
}

}  // namespace

std::int64_t retry_delay_us(SimTime retry_backoff, std::uint32_t attempt,
                            std::uint64_t jitter_draw) noexcept {
  const std::int64_t cap = kMaxUploadRetryDelay.us();
  // Clamp the configured base first so both the doubling loop and the
  // jitter modulus below operate on a bounded value. validate_... already
  // guarantees retry_backoff > 0, but clamp defensively anyway.
  std::int64_t base = retry_backoff.us();
  if (base < 1) base = 1;
  if (base > cap) base = cap;
  // retry_backoff * 2^attempt, saturating at the cap - no shift, so no UB
  // however large attempt or the configured backoff is.
  std::int64_t backoff = base;
  for (std::uint32_t i = 0; i < attempt && backoff < cap; ++i) {
    backoff = (backoff <= cap / 2) ? backoff * 2 : cap;
  }
  const std::int64_t jitter =
      static_cast<std::int64_t>(jitter_draw % static_cast<std::uint64_t>(base));
  return backoff + jitter;  // <= 2 * cap, far from int64 overflow
}

void validate_fleet_server_options(const FleetServerOptions& o) {
  require(o.devices > 0,
          "FleetServerOptions: devices must be >= 1 (an empty fleet serves nothing)");
  require(o.round_duration.us() > 0, "FleetServerOptions: round_duration must be positive");
  require(o.episode_length.us() > 0, "FleetServerOptions: episode_length must be positive");
  require(o.heartbeat_period.us() > 0,
          "FleetServerOptions: heartbeat_period must be positive");
  require(o.lease_timeout.us() >= o.heartbeat_period.us(),
          "FleetServerOptions: lease_timeout shorter than heartbeat_period would expire "
          "every healthy lease between heartbeats");
  require(o.upload_latency.us() >= 0, "FleetServerOptions: upload_latency must be >= 0");
  require(o.retry_backoff.us() > 0, "FleetServerOptions: retry_backoff must be positive");
  require(o.max_upload_attempts >= 1,
          "FleetServerOptions: max_upload_attempts must be >= 1");
  require(o.round_deadline.us() > o.round_duration.us() + o.upload_latency.us(),
          "FleetServerOptions: round_deadline must exceed round_duration + upload_latency "
          "or no clean upload could ever beat the straggler deadline");
  require(o.round_duration.us() + o.lease_timeout.us() <= o.round_deadline.us(),
          "FleetServerOptions: round_duration + lease_timeout must fit inside "
          "round_deadline so every lease expiry resolves within its round (boundary "
          "snapshots must never hold a half-expired lease)");
  require(o.churn.depart_rate >= 0.0 && o.churn.depart_rate < 1.0,
          "FleetServerOptions: churn.depart_rate must be in [0, 1)");
  require(o.churn.straggle_rate >= 0.0 && o.churn.straggle_rate <= 1.0,
          "FleetServerOptions: churn.straggle_rate must be in [0, 1]");
  require(o.churn.upload_fail_rate >= 0.0 && o.churn.upload_fail_rate < 1.0,
          "FleetServerOptions: churn.upload_fail_rate must be in [0, 1) (at 1.0 every "
          "attempt of every upload fails and the server can never learn)");
  require(o.churn.rejoin_after_rounds >= 1,
          "FleetServerOptions: churn.rejoin_after_rounds must be >= 1 (a device cannot "
          "rejoin the round it departed)");
  require(o.snapshot_ring == 0 || !o.snapshot_prefix.empty(),
          "FleetServerOptions: snapshot_ring is set but snapshot_prefix is empty - there "
          "is nowhere to persist the ring");
}

void encode_fleet_server_options(const FleetServerOptions& o, ByteWriter& out) {
  out.u64(static_cast<std::uint64_t>(o.devices));
  out.i64(o.round_duration.us());
  out.i64(o.round_deadline.us());
  out.i64(o.episode_length.us());
  out.i64(o.heartbeat_period.us());
  out.i64(o.lease_timeout.us());
  out.i64(o.upload_latency.us());
  out.i64(o.retry_backoff.us());
  out.u32(o.max_upload_attempts);
  out.u64(o.base_seed);
  out.f64(o.ambient.value());
  out.f64(o.merge_policy.half_life_rounds);
  out.u64(o.churn.seed);
  out.f64(o.churn.depart_rate);
  out.u64(static_cast<std::uint64_t>(o.churn.rejoin_after_rounds));
  out.f64(o.churn.straggle_rate);
  out.f64(o.churn.upload_fail_rate);
  encode_next_config(o.next_config, out);
}

FleetServer::FleetServer(AppFactory app_factory, const FleetServerOptions& options,
                         const ExecOptions& exec)
    : app_factory_{std::move(app_factory)}, options_{options}, exec_{exec} {
  require(static_cast<bool>(app_factory_), "FleetServer needs an app factory");
  validate_fleet_server_options(options_);
  state_.leases.resize(options_.devices);
  state_.uploads.resize(options_.devices);
  if (options_.snapshot_ring > 0) restore_from_ring();
}

FleetServer::FleetServer(workload::AppId app, const FleetServerOptions& options,
                         const ExecOptions& exec)
    : FleetServer([app](std::uint64_t seed) { return workload::make_app(app, seed); },
                  options, exec) {}

std::string FleetServer::ring_path(std::size_t slot) const {
  return options_.snapshot_prefix + "." + std::to_string(slot);
}

FleetServerStats FleetServer::stats() const noexcept {
  const FleetSnapshot::ServerCounters& c = state_.server_counters;
  return FleetServerStats{.rounds_served = c.rounds_served,
                          .uploads_accepted = c.uploads_accepted,
                          .uploads_retried = c.uploads_retried,
                          .uploads_lost = c.uploads_lost,
                          .late_uploads_merged = c.late_uploads_merged,
                          .departures = c.departures,
                          .total_decisions = state_.total_decisions,
                          .upload_bytes_full = state_.sync.upload_bytes_full,
                          .upload_bytes_delta = state_.sync.upload_bytes_delta,
                          .uploads_full = state_.sync.uploads_full,
                          .uploads_delta = state_.sync.uploads_delta,
                          .rejoins = rejoins_,
                          .snapshots_written = snapshots_written_,
                          .snapshots_failed = snapshots_failed_,
                          .snapshots_quarantined = snapshots_quarantined_};
}

void FleetServer::write_ring_snapshot() {
  if (options_.snapshot_ring == 0) return;
  SnapshotWriter out;
  encode_fleet_server_options(options_, out.section(kServerOptionsSection));
  write_fleet_state_sections(out, state_);
  out.write_file(ring_path(state_.next_round % options_.snapshot_ring));
  ++snapshots_written_;
}

void FleetServer::drain() { write_ring_snapshot(); }

void FleetServer::restore_from_ring() {
  // Opens one slot's container: CRC-checked (damage is quarantined and
  // counted) and held to the options identity. nullopt when the slot is
  // unusable.
  const auto open_slot = [&](const std::string& path) -> std::optional<SnapshotReader> {
    std::optional<SnapshotReader> reader;
    try {
      reader.emplace(read_snapshot_quarantining(path));
    } catch (const SerializeError& e) {
      // Damaged entry: already renamed to <path>.corrupt and logged; fall
      // back to another ring entry. A version-window refusal is not
      // quarantined but equally unusable by this build - skip it too.
      if (e.kind() == SerializeError::Kind::kCorrupt) ++snapshots_quarantined_;
      return std::nullopt;
    } catch (const IoError&) {
      return std::nullopt;  // slot never written (fresh ring or short run)
    }
    // Config identity gate, *outside* the recovery path: a mismatch means
    // the operator restarted the server under different options, which must
    // fail loudly rather than fall back to an older entry or quarantine a
    // perfectly healthy file.
    if (!reader->has(kServerOptionsSection)) {
      throw SerializeError(path +
                           ": not a fleet-server snapshot (missing the "
                           "'fleet_server_options' section; checkpoints of the retired "
                           "fixed-round trainer cannot seed the server ring)");
    }
    ByteReader stored = reader->section(kServerOptionsSection);
    ByteWriter current;
    encode_fleet_server_options(options_, current);
    bool match = stored.remaining() == current.size();
    for (std::size_t i = 0; match && i < current.size(); ++i) {
      match = stored.u8() == current.data()[i];
    }
    if (!match) {
      throw SerializeError(path +
                           ": ring snapshot was taken under different fleet-server "
                           "options (devices/timing/seeds/NextConfig/churn must all "
                           "match to resume bit-identically); refusing to resume");
    }
    return reader;
  };
  // A slot whose container passed its CRCs but whose state does not decode,
  // or does not fit this server, is as unusable as a CRC failure and is
  // quarantined the same way.
  const auto quarantine = [&](const std::string& path, const SerializeError& e) {
    (void)quarantine_snapshot(path, e.what());
    ++snapshots_quarantined_;
  };

  // Pass 1: every slot's container is read and checked, and only its round
  // cursor is kept; the bytes are dropped.
  struct Boundary {
    std::size_t round;
    std::size_t slot;
  };
  std::vector<Boundary> boundaries;
  for (std::size_t slot = 0; slot < options_.snapshot_ring; ++slot) {
    const std::string path = ring_path(slot);
    const std::optional<SnapshotReader> reader = open_slot(path);
    if (!reader.has_value()) continue;
    try {
      boundaries.push_back(Boundary{read_fleet_round_cursor(*reader), slot});
    } catch (const SerializeError& e) {
      quarantine(path, e);
    }
  }

  // Pass 2: decode newest-first (the lower slot first among equal rounds)
  // until one restores. Older slots are never decoded.
  std::stable_sort(boundaries.begin(), boundaries.end(),
                   [](const Boundary& a, const Boundary& b) { return a.round > b.round; });
  for (const Boundary& b : boundaries) {
    const std::string path = ring_path(b.slot);
    const std::optional<SnapshotReader> reader = open_slot(path);
    if (!reader.has_value()) continue;
    try {
      FleetSnapshot snap = read_fleet_state_sections(*reader);
      check_resumable(snap, options_);
      state_ = std::move(snap);
      restored_ = true;
      return;
    } catch (const SerializeError& e) {
      quarantine(path, e);
    }
  }
  // No slot restored: cold start at round 0.
}

void FleetServer::run_round(const FleetServerProgressFn& progress) {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t r = state_.next_round;
  const std::int64_t round_start =
      static_cast<std::int64_t>(r) * options_.round_deadline.us();
  const std::int64_t round_close = round_start + options_.round_deadline.us();
  state_.server_clock_us = round_start;

  FleetServerRoundStats rs;
  rs.round = r;
  rejoin_devices(state_, r, rs);
  rejoins_ += rs.rejoined;
  RoundDraws draws = draw_churn(state_, options_, r, round_start);
  rs.training_devices = draws.trainees.size();
  TrainedRound trained = train_round(state_, options_, app_factory_, exec_, r, draws.trainees);
  state_.total_decisions += trained.decisions;
  rs.mean_reward = draws.trainees.empty()
                       ? 0.0
                       : trained.reward_sum / static_cast<double>(draws.trainees.size());
  RoundTraffic traffic = seed_traffic(state_, std::move(draws), std::move(trained.held), r);
  const std::size_t accepted = deliver_uploads(state_, options_, r, round_close, traffic, rs);
  carry_in_flight(state_, std::move(traffic), rs);
  // With no fresh arrivals at all the previous aggregate simply carries.
  if (accepted > 0) merge_uploads(state_, options_, r);
  rs.global_states = state_.last_aggregate.has_value() ? state_.last_aggregate->state_count() : 0;
  state_.last_round_mean_reward = rs.mean_reward;
  drop_unreferenced_bases(state_);

  // Stage 7, the round boundary: advance the clock, rotate the snapshot
  // ring, report.
  state_.server_clock_us = round_close;
  state_.next_round = r + 1;
  ++state_.server_counters.rounds_served;
  // A boundary that fails to land (a full disk, an I/O error) is skipped,
  // not fatal: the server keeps serving and the ring keeps its older
  // boundaries, which a restart resumes from.
  try {
    write_ring_snapshot();
  } catch (const IoError& e) {
    ++snapshots_failed_;
    NEXTGOV_WARN << "fleet_server: round " << r << " boundary not persisted: " << e.what();
  }
  rs.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  if (progress) progress(rs);
}

void FleetServer::run_rounds(std::size_t n, const FleetServerProgressFn& progress) {
  for (std::size_t i = 0; i < n; ++i) run_round(progress);
}

}  // namespace nextgov::sim
