#include "sim/fleet.hpp"

#include <cstdio>
#include <optional>
#include <utility>

#include "common/log.hpp"
#include "rl/qtable_delta.hpp"

namespace nextgov::sim {

namespace {

// --- snapshot payload helpers ----------------------------------------------

constexpr const char* kStateSection = "fleet_state";
constexpr const char* kServerSection = "server_state";
constexpr const char* kSyncSection = "sync_state";

/// A device slot's last-upload round when it has no upload yet.
constexpr std::uint64_t kNeverUploaded = ~std::uint64_t{0};

void write_optional_table(ByteWriter& out, const std::optional<rl::QTable>& table) {
  out.boolean(table.has_value());
  if (table.has_value()) table->serialize(out);
}

std::optional<rl::QTable> read_optional_table(ByteReader& in) {
  if (!in.boolean()) return std::nullopt;
  return rl::QTable::deserialize(in);
}

}  // namespace

std::vector<std::uint8_t> encode_upload(const rl::QTable& table, const rl::QTable* delta_base,
                                        bool* went_delta) {
  SnapshotWriter wire;
  bool as_delta = false;
  if (delta_base != nullptr) {
    const std::optional<rl::QTableDelta> delta = rl::try_make_delta(*delta_base, table);
    if (delta.has_value()) {
      delta->serialize(wire.section("delta"));
      as_delta = true;
    }
  }
  if (!as_delta) table.serialize(wire.section("upload"));
  if (went_delta != nullptr) *went_delta = as_delta;
  return wire.bytes();
}

rl::QTable decode_upload(std::vector<std::uint8_t> blob, const rl::QTable* delta_base,
                         const std::string& label) {
  const SnapshotReader decoded{std::move(blob), label};
  if (decoded.has("delta")) {
    if (delta_base == nullptr) {
      throw SerializeError(label +
                           ": delta-encoded upload, but the receiver holds no base table "
                           "to apply it to");
    }
    ByteReader payload = decoded.section("delta");
    return rl::apply_delta(*delta_base, rl::QTableDelta::deserialize(payload));
  }
  ByteReader payload = decoded.section("upload");
  return rl::QTable::deserialize(payload);
}

rl::QTable strip_visit_mass(const rl::QTable& table) {
  rl::QTable out{table.action_count()};
  table.for_each_entry([&](const rl::QTable::EntryView& e) {
    for (std::size_t a = 0; a < table.action_count() && a < 32; ++a) {
      if ((e.tried() & (1u << a)) != 0) out.set_q(e.key(), a, e.q(a));
    }
  });
  return out;
}

void encode_next_config(const core::NextConfig& c, ByteWriter& out) {
  out.i64(c.sample_period.us());
  out.i64(c.frame_window.us());
  out.i64(c.control_period.us());
  out.u64(static_cast<std::uint64_t>(c.fps_levels));
  out.u64(static_cast<std::uint64_t>(c.power_bins));
  out.f64(c.power_max_w);
  out.u64(static_cast<std::uint64_t>(c.temp_bins));
  out.f64(c.temp_min_c);
  out.f64(c.temp_max_c);
  out.f64(c.qlearning.alpha);
  out.f64(c.qlearning.gamma);
  out.f64(c.qlearning.alpha_min);
  out.f64(c.qlearning.visit_decay);
  out.f64(c.epsilon.start);
  out.f64(c.epsilon.end);
  out.u64(c.epsilon.decay_steps);
  out.f64(c.optimistic_q);
  out.u8(static_cast<std::uint8_t>(c.reward_metric));
  out.f64(c.ppdw_bounds.fps_least);
  out.f64(c.ppdw_bounds.fps_max);
  out.f64(c.ppdw_bounds.power_least.value());
  out.f64(c.ppdw_bounds.power_max.value());
  out.f64(c.ppdw_bounds.temp_least.value());
  out.f64(c.ppdw_bounds.temp_max.value());
  out.f64(c.ppdw_bounds.ambient.value());
  out.f64(c.ppdw_ref);
  out.f64(c.ppw_ref);
  out.f64(c.track_sigma_floor);
  out.f64(c.track_sigma_frac);
  out.f64(c.idle_power_scale_w);
  out.f64(c.drop_scale);
  out.u64(static_cast<std::uint64_t>(c.cap_up_step));
  out.u64(static_cast<std::uint64_t>(c.cap_down_step));
}

void write_fleet_state_sections(SnapshotWriter& out, const FleetSnapshot& snapshot) {
  ByteWriter& state = out.section(kStateSection);
  state.u64(static_cast<std::uint64_t>(snapshot.next_round));
  state.u64(snapshot.total_decisions);
  state.f64(snapshot.last_round_mean_reward);
  state.u64(0);  // retired shard tier: dropped device-rounds
  state.u64(0);  // retired shard tier: rejected uploads
  state.u32(static_cast<std::uint32_t>(snapshot.uploads.size()));
  for (const std::optional<FleetUpload>& upload : snapshot.uploads) {
    state.boolean(false);  // retired shard tier: the slot's shard table
    state.boolean(upload.has_value());
    if (upload.has_value()) {
      state.u64(static_cast<std::uint64_t>(upload->round));
      upload->table.serialize(state);
    }
    state.u64(upload.has_value() ? static_cast<std::uint64_t>(upload->round)
                                 : kNeverUploaded);
  }
  write_optional_table(state, snapshot.last_aggregate);

  // Version-2 extension: the server's lease / deadline / pending-upload
  // state. A separate section keeps the version-1 "fleet_state" layout
  // byte-stable.
  ByteWriter& server = out.section(kServerSection);
  server.i64(snapshot.server_clock_us);
  server.u32(static_cast<std::uint32_t>(snapshot.leases.size()));
  for (const DeviceLease& lease : snapshot.leases) {
    server.boolean(lease.active);
    server.u64(static_cast<std::uint64_t>(lease.rejoin_round));
  }
  server.u32(static_cast<std::uint32_t>(snapshot.pending_uploads.size()));
  for (const PendingUpload& pending : snapshot.pending_uploads) {
    server.u64(static_cast<std::uint64_t>(pending.device));
    server.u64(static_cast<std::uint64_t>(pending.trained_round));
    server.i64(pending.arrival_us);
    server.u32(pending.attempts_used);
    pending.table.serialize(server);
  }
  const FleetSnapshot::ServerCounters& c = snapshot.server_counters;
  server.u64(c.rounds_served);
  server.u64(c.uploads_accepted);
  server.u64(c.uploads_retried);
  server.u64(c.uploads_lost);
  server.u64(c.late_uploads_merged);
  server.u64(c.departures);

  // Version-3 extension: the cumulative upload-wire counters, again in a
  // section of their own so pre-v3 files simply decode without it.
  ByteWriter& sync = out.section(kSyncSection);
  sync.u32(0);  // retired shard tier: per-shard delta bases
  sync.u64(snapshot.sync.upload_bytes_full);
  sync.u64(snapshot.sync.upload_bytes_delta);
  sync.u64(snapshot.sync.uploads_full);
  sync.u64(snapshot.sync.uploads_delta);
}

FleetSnapshot read_fleet_state_sections(const SnapshotReader& snapshot) {
  ByteReader in = snapshot.section(kStateSection);
  FleetSnapshot out;
  out.next_round = static_cast<std::size_t>(in.u64());
  out.total_decisions = in.u64();
  out.last_round_mean_reward = in.f64();
  in.skip(16);  // retired shard-tier counters
  // Every slot takes at least 10 bytes (two flags and a round).
  const std::size_t slots =
      in.bounded_count(in.u32(), 10, "corrupt fleet snapshot: device count");
  if (slots == 0) in.fail("corrupt fleet snapshot: no devices");
  out.uploads.reserve(slots);
  for (std::size_t d = 0; d < slots; ++d) {
    if (in.boolean()) in.fail("holds a shard table; shard-tier checkpoints are not supported");
    if (in.boolean()) {
      const std::size_t upload_round = static_cast<std::size_t>(in.u64());
      out.uploads.push_back(FleetUpload{rl::QTable::deserialize(in), upload_round});
    } else {
      out.uploads.push_back(std::nullopt);
    }
    in.skip(8);  // last-upload round, implied by the upload itself
  }
  out.last_aggregate = read_optional_table(in);
  if (!in.done()) in.fail("trailing bytes after the fleet state payload");

  ByteReader server = snapshot.section(kServerSection);
  out.server_clock_us = server.i64();
  // A lease is an active flag and a rejoin round (9 bytes).
  const std::size_t leases =
      server.bounded_count(server.u32(), 9, "corrupt fleet snapshot: lease count");
  out.leases.reserve(leases);
  for (std::size_t d = 0; d < leases; ++d) {
    DeviceLease lease;
    lease.active = server.boolean();
    lease.rejoin_round = static_cast<std::size_t>(server.u64());
    out.leases.push_back(lease);
  }
  // A pending upload holds at least its 28-byte header.
  const std::size_t pending =
      server.bounded_count(server.u32(), 28, "corrupt fleet snapshot: pending-upload count");
  out.pending_uploads.reserve(pending);
  for (std::size_t i = 0; i < pending; ++i) {
    const std::size_t device = static_cast<std::size_t>(server.u64());
    const std::size_t trained_round = static_cast<std::size_t>(server.u64());
    const std::int64_t arrival_us = server.i64();
    const std::uint32_t attempts_used = server.u32();
    out.pending_uploads.push_back(PendingUpload{device, trained_round, arrival_us,
                                                attempts_used, rl::QTable::deserialize(server)});
  }
  FleetSnapshot::ServerCounters& c = out.server_counters;
  c.rounds_served = server.u64();
  c.uploads_accepted = server.u64();
  c.uploads_retried = server.u64();
  c.uploads_lost = server.u64();
  c.late_uploads_merged = server.u64();
  c.departures = server.u64();
  if (!server.done()) server.fail("trailing bytes after the server state payload");

  if (!snapshot.has(kSyncSection)) return out;  // pre-v3 file: counters zero
  ByteReader sync = snapshot.section(kSyncSection);
  if (sync.u32() != 0) sync.fail("holds shard delta bases; shard-tier checkpoints are not supported");
  out.sync.upload_bytes_full = sync.u64();
  out.sync.upload_bytes_delta = sync.u64();
  out.sync.uploads_full = sync.u64();
  out.sync.uploads_delta = sync.u64();
  if (!sync.done()) sync.fail("trailing bytes after the sync state payload");
  return out;
}

bool quarantine_snapshot(const std::string& path, const std::string& reason) {
  const std::string quarantined = path + ".corrupt";
  if (std::rename(path.c_str(), quarantined.c_str()) == 0) {
    NEXTGOV_LOG(kWarn) << "quarantined corrupt snapshot '" << path << "' -> '" << quarantined
                       << "': " << reason;
    return true;
  }
  NEXTGOV_LOG(kWarn) << "corrupt snapshot '" << path
                     << "' could not be quarantined (rename failed): " << reason;
  return false;
}

SnapshotReader read_snapshot_quarantining(const std::string& path) {
  try {
    return SnapshotReader::from_file(path);
  } catch (const SerializeError& e) {
    // A version-window refusal is a *valid* file written by a different
    // release: leave it in place so a matching build can still restore it.
    if (e.kind() == SerializeError::Kind::kVersionWindow) throw;
    if (quarantine_snapshot(path, e.what())) {
      throw SerializeError(std::string{e.what()} + " (quarantined to " + path + ".corrupt)");
    }
    throw;
  }
}

}  // namespace nextgov::sim
