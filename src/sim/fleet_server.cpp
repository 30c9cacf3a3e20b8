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
  std::optional<FleetSnapshot> best;
  for (std::size_t slot = 0; slot < options_.snapshot_ring; ++slot) {
    const std::string path = ring_path(slot);
    std::optional<SnapshotReader> reader;
    try {
      reader.emplace(read_snapshot_quarantining(path));
    } catch (const SerializeError& e) {
      // Damaged entry: already renamed to <path>.corrupt and logged; fall
      // back to the next (older) ring entry. A version-window refusal is
      // not quarantined but equally unusable by this build - skip it too.
      if (e.kind() == SerializeError::Kind::kCorrupt) ++snapshots_quarantined_;
      continue;
    } catch (const IoError&) {
      continue;  // slot never written (fresh ring or short run)
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
    std::optional<FleetSnapshot> snap;
    try {
      snap = read_fleet_state_sections(*reader);
      check_resumable(*snap, options_);
    } catch (const SerializeError& e) {
      // The container passed its CRCs but its state does not decode, or
      // does not fit this server: as unusable as a CRC failure, and
      // quarantined the same way.
      (void)quarantine_snapshot(path, e.what());
      ++snapshots_quarantined_;
      continue;
    }
    if (!best.has_value() || snap->next_round > best->next_round) best = std::move(snap);
  }
  if (!best.has_value()) return;  // cold start at round 0
  state_ = std::move(*best);
  restored_ = true;
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
  FleetSnapshot::ServerCounters& counters = state_.server_counters;

  // 1. Re-registration: departed devices whose absence has run its course
  //    take a fresh lease before the round starts.
  for (std::size_t d = 0; d < options_.devices; ++d) {
    if (!state_.leases[d].active && state_.leases[d].rejoin_round <= r) {
      state_.leases[d] = DeviceLease{};
      ++rs.rejoined;
      ++rejoins_;
    }
  }

  // 2. Churn draws + event seeding. A departing device stops heartbeating
  //    at a seeded instant inside its training window; the server notices
  //    at the last heartbeat + lease_timeout. It never contributes a
  //    partial table - its training cell is simply not scheduled (the
  //    result could never be uploaded, and a pure-function fleet has no
  //    half-trained state to leak).
  std::vector<Event> heap;
  std::vector<HeldTable> arena;
  std::vector<std::size_t> trainees;
  std::vector<std::int64_t> first_attempt_us(options_.devices, 0);
  for (std::size_t d = 0; d < options_.devices; ++d) {
    if (!state_.leases[d].active) continue;
    SplitMix64 depart = churn_stream(options_.churn.seed, kDepartSalt, r, d);
    if (bernoulli(depart, options_.churn.depart_rate)) {
      const std::int64_t depart_us =
          round_start +
          static_cast<std::int64_t>(depart.next() %
                                    static_cast<std::uint64_t>(options_.round_duration.us()));
      const std::int64_t last_heartbeat =
          round_start + ((depart_us - round_start) / options_.heartbeat_period.us()) *
                            options_.heartbeat_period.us();
      heap.push_back(Event{last_heartbeat + options_.lease_timeout.us(),
                           Event::kLeaseExpiry, d, r, 0, 0});
      state_.leases[d].active = false;
      state_.leases[d].rejoin_round = r + options_.churn.rejoin_after_rounds;
      continue;
    }
    std::int64_t start = round_start + options_.round_duration.us();
    SplitMix64 straggle = churn_stream(options_.churn.seed, kStraggleSalt, r, d);
    if (bernoulli(straggle, options_.churn.straggle_rate)) {
      // At least half a round late: usually past the deadline, so the
      // table carries into the next round and merges with staleness 1.
      start += options_.round_deadline.us() / 2 +
               static_cast<std::int64_t>(
                   straggle.next() % static_cast<std::uint64_t>(options_.round_deadline.us()));
    }
    first_attempt_us[d] = start + options_.upload_latency.us();
    trainees.push_back(d);
  }
  rs.training_devices = trainees.size();

  // 3. Train every leased, non-departing device for round_duration of
  //    simulated time - one homogeneous plan through execute(), warm-started
  //    from the global aggregate (visit mass stripped so historical
  //    experience is counted once, via the aggregate, not once per device).
  //    The warm table joins the state's bases as this round's; it stays
  //    there while some upload held as a delta against it is.
  const rl::QTable* warm = nullptr;
  if (state_.last_aggregate.has_value()) {
    state_.warm_bases.push_back(WarmBase{r, strip_visit_mass(*state_.last_aggregate)});
    warm = &state_.warm_bases.back().table;
  }
  TrainingPlan plan;
  for (const std::size_t d : trainees) {
    TrainingOptions cell;
    cell.max_duration = options_.round_duration;
    cell.episode_length = options_.episode_length;
    cell.seed = derive_seed(derive_seed(options_.base_seed, d), r);
    cell.ambient = options_.ambient;
    cell.initial_table = warm;
    plan.add(app_factory_, "device_" + std::to_string(d), options_.next_config, cell);
  }
  // exec_ may fan the plan out across worker threads - bit-identical
  // either way, so snapshots and goldens are oblivious to the choice.
  std::vector<TrainingResult> results = execute(plan, exec_);
  double reward_sum = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    reward_sum += results[i].final_mean_reward;
    state_.total_decisions += results[i].decisions;
    // The table is held from here on as its delta against the warm table
    // it trained from, made once: its wire upload sends it, every
    // ring entry stores it and the merge reads it over the base. The full
    // table is dropped with `table`. Without a base, or when
    // try_make_delta refuses, the full table is held instead.
    rl::QTable table = std::move(results[i].table);
    std::optional<rl::QTableDelta> delta;
    if (warm != nullptr) delta = rl::try_make_delta(*warm, table);
    if (delta.has_value()) {
      arena.emplace_back(RingDelta{r, std::move(*delta)});
    } else {
      arena.emplace_back(std::move(table));
    }
    heap.push_back(Event{first_attempt_us[trainees[i]], Event::kUploadArrival,
                         trainees[i], r, 0, arena.size() - 1});
  }
  rs.mean_reward =
      results.empty() ? 0.0 : reward_sum / static_cast<double>(results.size());

  // Pending uploads from earlier rounds re-enter the loop with their
  // persisted arrival times and attempt counters, so a restarted server
  // replays exactly the same arrivals.
  for (PendingUpload& p : state_.pending_uploads) {
    arena.push_back(std::move(p.held));
    heap.push_back(Event{p.arrival_us, Event::kUploadArrival, p.device, p.trained_round,
                         p.attempts_used, arena.size() - 1});
  }
  state_.pending_uploads.clear();

  // 4. The event loop: process lease expiries and upload arrivals in
  //    simulated-time order until the straggler deadline.
  std::make_heap(heap.begin(), heap.end(), later);
  std::size_t accepted_this_round = 0;
  while (!heap.empty() && heap.front().t_us < round_close) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Event ev = heap.back();
    heap.pop_back();
    state_.server_clock_us = ev.t_us;
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
    HeldTable& held = arena[ev.table];
    const auto* ring = std::get_if<RingDelta>(&held);
    const rl::QTable* base = nullptr;
    std::vector<std::uint8_t> blob;
    if (ring != nullptr) {
      base = &base_of(state_, *ring);
      blob = encode_delta_upload(ring->delta);
      state_.sync.upload_bytes_delta += blob.size();
      ++state_.sync.uploads_delta;
      ++rs.delta_uploads;
    } else {
      blob = encode_upload(std::get<rl::QTable>(held), nullptr);
      state_.sync.upload_bytes_full += blob.size();
      ++state_.sync.uploads_full;
    }
    rs.upload_bytes += blob.size();
    if (options_.churn.upload_fail_rate > 0.0) {
      SplitMix64 fate =
          attempt_stream(options_.churn.seed, ev.trained_round, ev.device, ev.attempt);
      if (bernoulli(fate, options_.churn.upload_fail_rate)) damage_blob(blob, fate);
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
      if (next_attempt >= options_.max_upload_attempts) {
        ++counters.uploads_lost;
        ++rs.lost_uploads;
        continue;
      }
      SplitMix64 jitter =
          attempt_stream(options_.churn.seed ^ 0x1u, ev.trained_round, ev.device, ev.attempt);
      const std::int64_t delay =
          retry_delay_us(options_.retry_backoff, ev.attempt, jitter.next());
      heap.push_back(Event{ev.t_us + delay, Event::kUploadArrival, ev.device,
                           ev.trained_round, next_attempt, ev.table});
      std::push_heap(heap.begin(), heap.end(), later);
      ++counters.uploads_retried;
      ++rs.retries;
      continue;
    }
    // Accepted. Only a strictly fresher table replaces a device's standing
    // upload (a very late round-k arrival after round-(k+1) already landed
    // is redundant, not a regression).
    std::optional<FleetUpload>& standing = state_.uploads[ev.device];
    if (!standing.has_value() || standing->round < ev.trained_round) {
      standing = FleetUpload{std::move(held), ev.trained_round};
      ++counters.uploads_accepted;
      ++accepted_this_round;
      if (ev.trained_round < r) {
        ++counters.late_uploads_merged;
        ++rs.late_merged;
      } else {
        ++rs.quorum;
      }
    }
  }

  // 5. Straggler deadline: whatever is still in flight carries into the
  //    next round as persisted PendingUploads - merged late rather than
  //    dropped, and never allowed to stall this round's close. They are
  //    carried in arrival order; the events are sorted, not the uploads
  //    that own their tables.
  std::sort(heap.begin(), heap.end(), [](const Event& a, const Event& b) { return later(b, a); });
  for (const Event& ev : heap) {
    NEXTGOV_ASSERT(ev.kind == Event::kUploadArrival);  // expiries resolve in-round
    state_.pending_uploads.push_back(PendingUpload{ev.device, ev.trained_round, ev.t_us,
                                                   ev.attempt, std::move(arena[ev.table])});
  }
  rs.carried_late = state_.pending_uploads.size();

  // 6. Graceful degradation merge: the staleness-weighted aggregate of
  //    every device's last accepted upload, aged by how many rounds ago it
  //    trained. Departed and straggling devices lean on their older
  //    uploads, exactly as the merge math intends; with no fresh arrivals
  //    at all the previous aggregate simply carries. A delta-held upload
  //    is read over its warm base, never rebuilt.
  if (accepted_this_round > 0) {
    std::vector<rl::MergeInput> inputs;
    std::vector<double> staleness;
    for (const auto& upload : state_.uploads) {
      if (!upload.has_value()) continue;
      if (const auto* ring = std::get_if<RingDelta>(&upload->held)) {
        inputs.push_back(rl::MergeInput{&base_of(state_, *ring), &ring->delta});
      } else {
        inputs.push_back(rl::MergeInput{&std::get<rl::QTable>(upload->held)});
      }
      staleness.push_back(static_cast<double>(r - upload->round));
    }
    state_.last_aggregate = rl::merge_q_tables(inputs, staleness, options_.merge_policy);
  }
  rs.global_states = state_.last_aggregate.has_value() ? state_.last_aggregate->state_count() : 0;
  state_.last_round_mean_reward = rs.mean_reward;
  drop_unreferenced_bases(state_);

  // 7. Round boundary: advance the clock, rotate the snapshot ring, report.
  state_.server_clock_us = round_close;
  state_.next_round = r + 1;
  ++counters.rounds_served;
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
