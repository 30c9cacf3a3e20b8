// fleet.hpp - the fleet server's persistent state and upload wire codec.
//
// Section IV-C's cloud-training story is a manufacturer's fleet: many
// devices run the same app under different users, train locally, and the
// cloud periodically aggregates their Q-tables and pushes the merge back.
// sim::FleetServer (sim/fleet_server.hpp) is the one trainer that simulates
// it; this header holds the pieces of it that outlive a process or cross a
// wire:
//
//   * FleetSnapshot and its section codec - everything a restarted server
//     needs to resume bit-identically, written through the common snapshot
//     container (magic, version, per-section CRC32) into the server's ring;
//   * read_snapshot_quarantining - the ring's loader, which moves a damaged
//     entry aside so a restart never re-reads the same damage;
//   * the upload wire codec - every device upload travels as CRC-guarded
//     snapshot bytes (the full table, or a delta against a base both ends
//     hold), so damaged bytes always surface as SerializeError;
//   * strip_visit_mass - the warm start every device trains from.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "core/next_config.hpp"
#include "rl/qtable.hpp"

namespace nextgov::sim {

/// One device's last accepted upload as the server holds it.
struct FleetUpload {
  rl::QTable table;
  std::size_t round{0};  ///< round whose training produced the table
};

/// One device's lease as the fleet server tracks it (snapshot container
/// version 2). A device holds its lease by heartbeating; when heartbeats
/// stop mid-round the lease expires, the server discards the device's
/// in-flight round, and the device re-registers at `rejoin_round`.
struct DeviceLease {
  bool active{true};
  std::size_t rejoin_round{0};  ///< first round a departed device re-registers
};

/// A late upload still in flight at a round boundary: accepted-in-principle
/// bytes that will arrive (or keep retrying) during a later round. Persisted
/// so a restarted server replays the exact same arrivals.
struct PendingUpload {
  std::size_t device{0};
  std::size_t trained_round{0};    ///< round whose training produced the table
  std::int64_t arrival_us{0};      ///< absolute simulated arrival time of the next attempt
  std::uint32_t attempts_used{0};  ///< upload attempts already spent on this table
  rl::QTable table;
};

/// The complete persistent state of a fleet server at a round boundary -
/// everything a resumed server needs to continue bit-identically.
///
/// On disk it spans three sections: "fleet_state" (round cursor, counters,
/// per-device uploads, the global aggregate), "server_state" (format
/// version 2: clock, leases, pending uploads, lifetime counters) and
/// "sync_state" (version 3: upload-wire counters). The "fleet_state" and
/// "sync_state" layouts still carry the slots of the retired shard tier -
/// two zero counters, an empty shard-table flag per device, a per-device
/// last-upload round and an empty delta-base list - so an entry written
/// today is byte-identical to one written before the tier went away.
struct FleetSnapshot {
  std::size_t next_round{0};  ///< first round the resumed server executes
  std::uint64_t total_decisions{0};
  double last_round_mean_reward{0.0};
  /// Per device: its last accepted upload (the staleness merge input).
  std::vector<std::optional<FleetUpload>> uploads;
  std::optional<rl::QTable> last_aggregate;

  // --- "server_state" section (container version 2) ------------------------
  struct ServerCounters {
    std::uint64_t rounds_served{0};
    std::uint64_t uploads_accepted{0};
    std::uint64_t uploads_retried{0};
    std::uint64_t uploads_lost{0};
    std::uint64_t late_uploads_merged{0};
    std::uint64_t departures{0};
  };
  std::vector<DeviceLease> leases;             ///< per device
  std::vector<PendingUpload> pending_uploads;  ///< in flight across the boundary
  std::int64_t server_clock_us{0};             ///< simulated clock at the boundary
  ServerCounters server_counters;

  // --- "sync_state" section (container version 3) --------------------------
  // Cumulative upload-wire counters. Absent in version-1/2 files, which
  // decode with zeros. The server's delta base is the round's warm table,
  // recomputed from last_aggregate on restore, so no base is persisted.
  struct SyncState {
    std::uint64_t upload_bytes_full{0};
    std::uint64_t upload_bytes_delta{0};
    std::uint64_t uploads_full{0};
    std::uint64_t uploads_delta{0};
  };
  SyncState sync;
};

/// Canonical encoding of a NextConfig (every field the agent's trajectory
/// depends on). Part of the fleet server's options-identity blob.
void encode_next_config(const core::NextConfig& config, ByteWriter& out);

/// Writes the "fleet_state", "server_state" and "sync_state" sections of
/// `snapshot` into `out`.
void write_fleet_state_sections(SnapshotWriter& out, const FleetSnapshot& snapshot);

/// Decodes what write_fleet_state_sections() wrote. A container without a
/// "sync_state" section (format versions 1 and 2) decodes with zero wire
/// counters. Shard-tier state that only the retired fixed-round trainer
/// wrote (a shard table, a delta base) is refused with SerializeError.
[[nodiscard]] FleetSnapshot read_fleet_state_sections(const SnapshotReader& in);

/// Reads and fully validates the snapshot container at `path`. On a
/// corruption failure (SerializeError::Kind::kCorrupt: bad magic,
/// truncation, CRC mismatch) the damaged file goes through
/// quarantine_snapshot() and the error is rethrown naming the quarantine
/// location. Version-window refusals (Kind::kVersionWindow) do NOT
/// quarantine: the file is valid, just written by a different release.
[[nodiscard]] SnapshotReader read_snapshot_quarantining(const std::string& path);

/// Renames the damaged snapshot at `path` to `<path>.corrupt` and logs why
/// (`reason`), so a restart never re-reads the same damage. Returns false
/// (also logged) when the rename itself fails. FleetServer sends here too
/// a ring entry whose container passes its CRCs but whose state it cannot
/// resume.
bool quarantine_snapshot(const std::string& path, const std::string& reason);

/// Copy of `table` carrying its action values and tried masks but no visit
/// mass. Warm-starting devices from this keeps historical visit mass
/// counted exactly once - via the aggregate itself - instead of once per
/// device, which would inflate it by the fleet size every round and swamp
/// the staleness weighting.
[[nodiscard]] rl::QTable strip_visit_mass(const rl::QTable& table);

// --- upload wire codec -------------------------------------------------------
// One CRC-guarded snapshot container per upload, holding either an "upload"
// section (the full table) or a "delta" section (a QTableDelta against a
// base both ends hold). decode_upload(encode_upload(t, ...)) == t
// bit-exactly on both paths, so the wire strategy is invisible to the
// training trajectory; damaged bytes always surface as SerializeError via
// the container's CRC/length checks.

/// Encodes `table` as upload wire bytes: a delta against `*delta_base` when
/// a base is given and the delta can replay bit-exactly (see
/// rl::try_make_delta), else the full table. `*went_delta` (optional)
/// reports which path was taken.
[[nodiscard]] std::vector<std::uint8_t> encode_upload(const rl::QTable& table,
                                                      const rl::QTable* delta_base,
                                                      bool* went_delta = nullptr);

/// Decodes upload wire bytes produced by encode_upload. When the blob is a
/// delta, `delta_base` must be the same base the sender encoded against;
/// a missing or mismatched base throws SerializeError, exactly like any
/// damaged blob.
[[nodiscard]] rl::QTable decode_upload(std::vector<std::uint8_t> blob,
                                       const rl::QTable* delta_base,
                                       const std::string& label);

}  // namespace nextgov::sim
