#include "sim/fleet.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "rl/qtable_delta.hpp"

namespace nextgov::sim {

namespace {

// --- snapshot payload helpers ----------------------------------------------

constexpr const char* kStateSection = "fleet_state";
constexpr const char* kServerSection = "server_state";
constexpr const char* kSyncSection = "sync_state";

void write_optional_table(ByteWriter& out, const std::optional<rl::QTable>& table) {
  out.boolean(table.has_value());
  if (table.has_value()) table->serialize(out);
}

std::optional<rl::QTable> read_optional_table(ByteReader& in) {
  if (!in.boolean()) return std::nullopt;
  return rl::QTable::deserialize(in);
}

// --- version 4: held tables as a delta against a warm base, or in full ------

constexpr std::uint8_t kStoredFull = 0;
constexpr std::uint8_t kStoredDelta = 1;
/// The smallest serialized table (its 32-byte header) and delta (40 bytes).
constexpr std::size_t kMinTableBytes = 32;
constexpr std::size_t kMinDeltaBytes = 40;

std::size_t held_table_bytes(const HeldTable& held) {
  const auto* ring = std::get_if<RingDelta>(&held);
  return 1 + (ring != nullptr ? 8 + ring->delta.serialized_size()
                              : std::get<rl::QTable>(held).serialized_size());
}

void write_held_table(ByteWriter& out, const HeldTable& held) {
  const auto* ring = std::get_if<RingDelta>(&held);
  if (ring == nullptr) {
    out.u8(kStoredFull);
    std::get<rl::QTable>(held).serialize(out);
    return;
  }
  out.u8(kStoredDelta);
  out.u64(static_cast<std::uint64_t>(ring->base_round));
  ring->delta.serialize(out);
}

/// Reads what write_held_table wrote. A delta stays a delta, checked
/// against its base in `bases` (sorted by round) as apply_delta would.
HeldTable read_held_table(ByteReader& in, const std::vector<WarmBase>& bases) {
  const std::uint8_t tag = in.u8();
  if (tag == kStoredFull) return rl::QTable::deserialize(in);
  if (tag != kStoredDelta) in.fail("corrupt fleet snapshot: table tag " + std::to_string(tag));
  const std::uint64_t base_round = in.u64();
  const WarmBase* base = find_warm_base(bases, static_cast<std::size_t>(base_round));
  if (base == nullptr) {
    in.fail("corrupt fleet snapshot: a delta against the warm base of round " +
            std::to_string(base_round) + ", which the entry does not hold");
  }
  RingDelta ring{base->round, rl::QTableDelta::deserialize(in)};
  rl::check_delta_applies(base->table, ring.delta);
  return ring;
}

FleetSnapshot::ServerCounters read_server_counters(ByteReader& in) {
  FleetSnapshot::ServerCounters c;
  c.rounds_served = in.u64();
  c.uploads_accepted = in.u64();
  c.uploads_retried = in.u64();
  c.uploads_lost = in.u64();
  c.late_uploads_merged = in.u64();
  c.departures = in.u64();
  return c;
}

std::vector<DeviceLease> read_leases(ByteReader& in) {
  // A lease is an active flag and a rejoin round (9 bytes).
  const std::size_t count =
      in.bounded_count(in.u32(), 9, "corrupt fleet snapshot: lease count");
  std::vector<DeviceLease> leases(count);
  for (DeviceLease& lease : leases) {
    lease.active = in.boolean();
    lease.rejoin_round = static_cast<std::size_t>(in.u64());
  }
  return leases;
}

/// The four wire counters that end the "sync_state" payload.
FleetSnapshot::SyncState read_sync_counters(ByteReader& sync) {
  FleetSnapshot::SyncState out;
  out.upload_bytes_full = sync.u64();
  out.upload_bytes_delta = sync.u64();
  out.uploads_full = sync.u64();
  out.uploads_delta = sync.u64();
  if (!sync.done()) sync.fail("trailing bytes after the sync state payload");
  return out;
}

/// Format version 3: every table in full, behind the retired shard tier's
/// placeholders (two zero counters, a shard-table flag and a last-upload
/// round per device, an empty delta-base list in "sync_state").
FleetSnapshot read_version_3(const SnapshotReader& snapshot) {
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
  out.leases = read_leases(server);
  // A pending upload holds at least its 28-byte header and a table.
  const std::size_t pending = server.bounded_count(server.u32(), 28 + kMinTableBytes,
                                                   "corrupt fleet snapshot: pending-upload count");
  out.pending_uploads.reserve(pending);
  for (std::size_t i = 0; i < pending; ++i) {
    const std::size_t device = static_cast<std::size_t>(server.u64());
    const std::size_t trained_round = static_cast<std::size_t>(server.u64());
    const std::int64_t arrival_us = server.i64();
    const std::uint32_t attempts_used = server.u32();
    out.pending_uploads.push_back(PendingUpload{device, trained_round, arrival_us,
                                                attempts_used, rl::QTable::deserialize(server)});
  }
  out.server_counters = read_server_counters(server);
  if (!server.done()) server.fail("trailing bytes after the server state payload");

  ByteReader sync = snapshot.section(kSyncSection);
  if (sync.u32() != 0) sync.fail("holds shard delta bases; shard-tier checkpoints are not supported");
  out.sync = read_sync_counters(sync);
  return out;
}

}  // namespace

const WarmBase* find_warm_base(const std::vector<WarmBase>& bases, std::size_t round) noexcept {
  const auto base =
      std::lower_bound(bases.begin(), bases.end(), round,
                       [](const WarmBase& b, std::size_t r) { return b.round < r; });
  return base != bases.end() && base->round == round ? &*base : nullptr;
}

std::vector<std::uint8_t> encode_upload(const rl::QTable& table, const rl::QTable* delta_base) {
  std::optional<rl::QTableDelta> delta;
  if (delta_base != nullptr) delta = rl::try_make_delta(*delta_base, table);
  if (delta.has_value()) return encode_delta_upload(*delta);
  SnapshotWriter wire;
  table.serialize(wire.section("upload"));
  return wire.bytes();
}

std::vector<std::uint8_t> encode_delta_upload(const rl::QTableDelta& delta) {
  SnapshotWriter wire;
  delta.serialize(wire.section("delta"));
  return wire.bytes();
}

UploadPayload decode_upload_payload(std::vector<std::uint8_t> blob, const rl::QTable* delta_base,
                                    const std::string& label) {
  const SnapshotReader decoded{std::move(blob), label};
  if (decoded.has("delta")) {
    if (delta_base == nullptr) {
      throw SerializeError(label +
                           ": delta-encoded upload, but the receiver holds no base table "
                           "to apply it to");
    }
    ByteReader payload = decoded.section("delta");
    rl::QTableDelta delta = rl::QTableDelta::deserialize(payload);
    if (!payload.done()) payload.fail("trailing bytes after the delta payload");
    rl::check_delta_applies(*delta_base, delta);
    return delta;
  }
  ByteReader payload = decoded.section("upload");
  rl::QTable table = rl::QTable::deserialize(payload);
  if (!payload.done()) payload.fail("trailing bytes after the upload payload");
  return table;
}

rl::QTable decode_upload(std::vector<std::uint8_t> blob, const rl::QTable* delta_base,
                         const std::string& label) {
  UploadPayload payload = decode_upload_payload(std::move(blob), delta_base, label);
  if (auto* delta = std::get_if<rl::QTableDelta>(&payload)) {
    return rl::apply_delta(*delta_base, *delta);
  }
  return std::move(std::get<rl::QTable>(payload));
}

rl::QTable strip_visit_mass(const rl::QTable& table) {
  const std::size_t actions = table.action_count();
  // The tried bits that name an action; a state with none of them set is
  // dropped, and an untried action reads the fresh table's default (0).
  const std::uint32_t action_bits =
      actions >= 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << actions) - 1;
  rl::QTable out{actions};
  std::vector<float> row(actions);
  // A key-order walk, so `out` is built in key order too.
  table.for_each_entry([&](const rl::QTable::EntryView& e) {
    const std::uint32_t tried = e.tried() & action_bits;
    if (tried == 0) return;
    for (std::size_t a = 0; a < actions; ++a) {
      row[a] = a < 32 && (tried & (1u << a)) != 0 ? e.q(a) : 0.0f;
    }
    out.install_entry(e.key(), 0, tried, row);
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
  // Each section is sized up front and reserved once, so the tables
  // serialized into it append without regrowing the buffer. The sizes
  // follow the writes below field by field.
  const auto table_bytes = [](const std::optional<rl::QTable>& t) {
    return 1 + (t.has_value() ? t->serialized_size() : 0);
  };
  // The header fields, the aggregate, the base and device counts.
  std::size_t state_bytes = 24 + table_bytes(snapshot.last_aggregate) + 8;
  for (const WarmBase& base : snapshot.warm_bases) state_bytes += 8 + base.table.serialized_size();
  for (const std::optional<FleetUpload>& upload : snapshot.uploads) {
    state_bytes += 1 + (upload.has_value() ? 8 + held_table_bytes(upload->held) : 0);
  }
  // The clock, lease and pending counts and six counters; 9 bytes a lease.
  std::size_t server_bytes = 64 + 9 * snapshot.leases.size();
  for (const PendingUpload& pending : snapshot.pending_uploads) {
    server_bytes += 28 + held_table_bytes(pending.held);
  }

  ByteWriter& state = out.section(kStateSection);
  state.reserve(state_bytes);
  state.u64(static_cast<std::uint64_t>(snapshot.next_round));
  state.u64(snapshot.total_decisions);
  state.f64(snapshot.last_round_mean_reward);
  write_optional_table(state, snapshot.last_aggregate);
  state.u32(static_cast<std::uint32_t>(snapshot.warm_bases.size()));
  for (const WarmBase& base : snapshot.warm_bases) {
    state.u64(static_cast<std::uint64_t>(base.round));
    base.table.serialize(state);
  }
  state.u32(static_cast<std::uint32_t>(snapshot.uploads.size()));
  for (const std::optional<FleetUpload>& upload : snapshot.uploads) {
    state.boolean(upload.has_value());
    if (!upload.has_value()) continue;
    state.u64(static_cast<std::uint64_t>(upload->round));
    write_held_table(state, upload->held);
  }

  ByteWriter& server = out.section(kServerSection);
  server.reserve(server_bytes);
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
    write_held_table(server, pending.held);
  }
  const FleetSnapshot::ServerCounters& c = snapshot.server_counters;
  server.u64(c.rounds_served);
  server.u64(c.uploads_accepted);
  server.u64(c.uploads_retried);
  server.u64(c.uploads_lost);
  server.u64(c.late_uploads_merged);
  server.u64(c.departures);

  ByteWriter& sync = out.section(kSyncSection);
  sync.u64(snapshot.sync.upload_bytes_full);
  sync.u64(snapshot.sync.upload_bytes_delta);
  sync.u64(snapshot.sync.uploads_full);
  sync.u64(snapshot.sync.uploads_delta);
}

FleetSnapshot read_fleet_state_sections(const SnapshotReader& snapshot) {
  if (snapshot.version() == 3) return read_version_3(snapshot);
  ByteReader in = snapshot.section(kStateSection);
  FleetSnapshot out;
  out.next_round = static_cast<std::size_t>(in.u64());
  out.total_decisions = in.u64();
  out.last_round_mean_reward = in.f64();
  out.last_aggregate = read_optional_table(in);
  // A base is its round and a table.
  const std::size_t bases =
      in.bounded_count(in.u32(), 8 + kMinTableBytes, "corrupt fleet snapshot: warm-base count");
  out.warm_bases.reserve(bases);
  for (std::size_t i = 0; i < bases; ++i) {
    const std::uint64_t round = in.u64();
    if (i > 0 && round <= out.warm_bases.back().round) {
      in.fail("corrupt fleet snapshot: warm base of round " + std::to_string(round) +
              " is a duplicate or out of order");
    }
    if (round >= out.next_round) {
      in.fail("corrupt fleet snapshot: a warm base from round " + std::to_string(round) +
              " at boundary " + std::to_string(out.next_round));
    }
    out.warm_bases.push_back(WarmBase{static_cast<std::size_t>(round), rl::QTable::deserialize(in)});
  }
  // Every slot takes at least its flag byte. The slots grow as they are
  // read, not to the count up front: an empty slot is one byte on disk but
  // a few hundred in memory, so a damaged count must not size the vector.
  const std::size_t slots = in.bounded_count(in.u32(), 1, "corrupt fleet snapshot: device count");
  if (slots == 0) in.fail("corrupt fleet snapshot: no devices");
  for (std::size_t d = 0; d < slots; ++d) {
    if (!in.boolean()) {
      out.uploads.emplace_back();
      continue;
    }
    const auto round = static_cast<std::size_t>(in.u64());
    out.uploads.push_back(FleetUpload{read_held_table(in, out.warm_bases), round});
  }
  if (!in.done()) in.fail("trailing bytes after the fleet state payload");

  ByteReader server = snapshot.section(kServerSection);
  out.server_clock_us = server.i64();
  out.leases = read_leases(server);
  // A pending upload holds its 28-byte header, a tag and at least a delta.
  const std::size_t pending = server.bounded_count(
      server.u32(), 29 + std::min(kMinTableBytes, 8 + kMinDeltaBytes),
      "corrupt fleet snapshot: pending-upload count");
  out.pending_uploads.reserve(pending);
  for (std::size_t i = 0; i < pending; ++i) {
    const auto device = static_cast<std::size_t>(server.u64());
    const auto trained_round = static_cast<std::size_t>(server.u64());
    const std::int64_t arrival_us = server.i64();
    const std::uint32_t attempts_used = server.u32();
    out.pending_uploads.push_back(PendingUpload{device, trained_round, arrival_us, attempts_used,
                                                read_held_table(server, out.warm_bases)});
  }
  out.server_counters = read_server_counters(server);
  if (!server.done()) server.fail("trailing bytes after the server state payload");

  ByteReader sync = snapshot.section(kSyncSection);
  out.sync = read_sync_counters(sync);
  return out;
}

std::size_t read_fleet_round_cursor(const SnapshotReader& in) {
  ByteReader state = in.section(kStateSection);
  return static_cast<std::size_t>(state.u64());
}

bool quarantine_snapshot(const std::string& path, const std::string& reason) {
  const std::string quarantined = path + ".corrupt";
  if (std::rename(path.c_str(), quarantined.c_str()) == 0) {
    NEXTGOV_WARN << "quarantined corrupt snapshot '" << path << "' -> '" << quarantined
                       << "': " << reason;
    return true;
  }
  NEXTGOV_WARN << "corrupt snapshot '" << path
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
