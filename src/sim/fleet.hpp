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
//     container (magic, version, per-section CRC32) into the server's ring.
//     A ring entry (format version 4) stores each warm-start table once and
//     every device upload as a delta against the one it trained from, so it
//     costs what changed rather than a full table per device - and the
//     server holds each upload in that same one form (HeldTable);
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
#include <variant>
#include <vector>

#include "common/serialize.hpp"
#include "core/next_config.hpp"
#include "rl/qtable.hpp"
#include "rl/qtable_delta.hpp"

namespace nextgov::sim {

/// A table held as `delta` against the warm base of round `base_round`
/// (FleetSnapshot::warm_bases).
struct RingDelta {
  std::size_t base_round{0};
  rl::QTableDelta delta;
};

/// A table the server holds - a trainee's result, a standing or pending
/// upload - in exactly one form, the one a ring entry stores it in: a delta
/// against the warm base it trained from, or the full table when it has no
/// base (a cold-start table, one restored from a version-3 entry, or one
/// rl::try_make_delta refused). The merge reads a delta over its base
/// (rl::MergeInput), and the wire carries the form held.
using HeldTable = std::variant<rl::QTable, RingDelta>;

/// A warm-start table the ring keeps: strip_visit_mass of the global
/// aggregate at the start of `round`, the table every device that trained
/// in that round started from.
struct WarmBase {
  std::size_t round{0};
  rl::QTable table;
};

/// The base of `round` in `bases` (sorted by round), or nullptr.
[[nodiscard]] const WarmBase* find_warm_base(const std::vector<WarmBase>& bases,
                                             std::size_t round) noexcept;

/// One device's last accepted upload as the server holds it.
struct FleetUpload {
  HeldTable held;
  std::size_t round{0};  ///< round whose training produced the table
};

/// One device's lease as the fleet server tracks it. A device holds its
/// lease by heartbeating; when heartbeats stop mid-round the lease expires,
/// the server discards the device's in-flight round, and the device
/// re-registers at `rejoin_round`.
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
  HeldTable held;
};

/// The complete persistent state of a fleet server at a round boundary -
/// everything a resumed server needs to continue bit-identically.
/// FleetServer keeps its live state in this form, so a ring write
/// serializes it in place and a restore adopts a decoded one whole.
///
/// On disk (format version 4) it spans three sections:
///   "fleet_state"  - round cursor, decision count, last mean reward, the
///                    global aggregate (in full), the warm bases (each in
///                    full, keyed by round) and each device's standing upload;
///   "server_state" - clock, leases, pending uploads, lifetime counters;
///   "sync_state"   - the four upload-wire counters.
/// Every upload, standing or pending, is stored as a tag byte and then
/// either the full table (tag 0) or its base round and a QTableDelta
/// against that warm base (tag 1). read_fleet_state_sections keeps each
/// in the form it was stored in - a delta-stored upload decodes to its
/// HeldTable delta, checked against its base, not to a rebuilt table - so
/// a decoded snapshot holds about what the entry stores.
/// Version-3 entries (every upload in full, behind the retired shard
/// tier's placeholder bytes) still decode, with no warm bases.
struct FleetSnapshot {
  std::size_t next_round{0};  ///< first round the resumed server executes
  std::uint64_t total_decisions{0};
  double last_round_mean_reward{0.0};
  /// Per device: its last accepted upload (the staleness merge input).
  std::vector<std::optional<FleetUpload>> uploads;
  std::optional<rl::QTable> last_aggregate;
  /// The bases the uploads' ring deltas name, in increasing round order.
  /// FleetServer keeps exactly the ones some standing or pending upload
  /// still references.
  std::vector<WarmBase> warm_bases;

  // --- "server_state" section ----------------------------------------------
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

  // --- "sync_state" section ------------------------------------------------
  // Cumulative upload-wire counters: a delta upload's base is the warm
  // base its held delta names.
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

/// Decodes what write_fleet_state_sections() wrote, in format version 4 or
/// 3. Throws SerializeError on damage the CRCs cannot see: a missing
/// section, a count the bytes cannot hold, trailing bytes, a delta that
/// names a base the entry does not hold or that does not apply to it, a
/// duplicate base round, or a base from a round the boundary has not
/// reached. In a version-3 entry, shard-tier state that only the retired
/// fixed-round trainer wrote (a shard table, a delta base) is refused too.
[[nodiscard]] FleetSnapshot read_fleet_state_sections(const SnapshotReader& in);

/// The round cursor of a fleet-state entry (FleetSnapshot::next_round, the
/// first u64 of its "fleet_state" section, in format version 4 and 3),
/// without decoding the rest. Throws SerializeError when the section is
/// missing or shorter than 8 bytes.
[[nodiscard]] std::size_t read_fleet_round_cursor(const SnapshotReader& in);

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
// base both ends hold). FleetServer sends each upload in the form it holds
// it: a held delta as encode_delta_upload, a held table in full.
// decode_upload(encode_upload(t, ...)) == t bit-exactly on both paths;
// damaged bytes always surface as SerializeError via the container's
// CRC/length checks.

/// Encodes `table` as upload wire bytes: a delta against `*delta_base` when
/// a base is given and the delta can replay bit-exactly (see
/// rl::try_make_delta), else the full table. The blob's section ("delta"
/// or "upload") says which path was taken.
[[nodiscard]] std::vector<std::uint8_t> encode_upload(const rl::QTable& table,
                                                      const rl::QTable* delta_base);

/// The delta upload of a delta already made: with `delta` =
/// try_make_delta(base, table) the bytes equal encode_upload(table, &base),
/// without making the delta a second time.
[[nodiscard]] std::vector<std::uint8_t> encode_delta_upload(const rl::QTableDelta& delta);

/// What upload wire bytes carry: the full table, or a delta.
using UploadPayload = std::variant<rl::QTable, rl::QTableDelta>;

/// Decodes upload wire bytes produced by encode_upload into what they
/// carry, without rebuilding a delta. A delta must apply to `delta_base`,
/// the base the sender encoded against (rl::check_delta_applies); a missing
/// or mismatched base throws SerializeError, exactly like any damaged blob
/// (trailing bytes after the payload included).
[[nodiscard]] UploadPayload decode_upload_payload(std::vector<std::uint8_t> blob,
                                                  const rl::QTable* delta_base,
                                                  const std::string& label);

/// decode_upload_payload with a delta rebuilt against `delta_base`: the
/// sender's table, bit for bit.
[[nodiscard]] rl::QTable decode_upload(std::vector<std::uint8_t> blob,
                                       const rl::QTable* delta_base,
                                       const std::string& label);

}  // namespace nextgov::sim
