// multiproc.hpp - multi-process sharded sweep execution (fork + pipe).
//
// run_plan() tops out at one process's threads; serving a fleet of millions
// of simulated devices needs the next rung: shard a RunPlan / TrainingPlan
// across OS *processes*. run_plan_sharded() / run_training_plan_sharded()
// fork N workers (plain fork + pipe - no MPI, no sockets, no external
// dependency), give each a contiguous shard of the plan to run through the
// existing runner (threaded or batched, per MultiprocOptions), and stream
// every result back over the worker's pipe as length-prefixed,
// CRC32-guarded frames encoded with common/serialize's ByteWriter. The
// parent merges frames into plan order, so the merged vector is
// *bit-identical* to the single-process path - the same determinism
// contract (and the same gating) BatchRunner carries, asserted by
// tests/sim/multiproc_test.cpp and the perf_multiproc bench gate.
//
// Failure model: degrade, never wedge. A worker that dies (EOF before its
// done frame, SIGKILL mid-stream), corrupts a frame (CRC mismatch, framing
// violation) or exits nonzero has its *entire shard* re-run in the parent
// process through the very same runner entry point, which by the
// determinism contract reproduces the exact bytes the worker would have
// sent. Every shard's fate is surfaced in a ShardReport so callers can see
// recoveries happened; nothing is silently dropped and no worker failure
// can stall the sweep.
//
// Because every result crosses a process boundary, the wire codec below
// round-trips SessionResult / TrainingResult bit-exactly (floats travel as
// IEEE-754 bit patterns via ByteWriter); the codec is exposed for tests and
// for tools that persist merged sweep results (examples/matrix_sweep.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "sim/runner.hpp"

namespace nextgov::sim {

/// MultiprocFaultPlan shard index meaning "no shard".
inline constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

/// Deterministic worker-failure injection for tests, the recovery smoke
/// and the perf_multiproc recovery gate - the multi-process counterpart of
/// the fleet server's FleetChurnPlan. Defaults inject nothing.
struct MultiprocFaultPlan {
  /// This shard's worker SIGKILLs itself mid-stream (after
  /// `kill_after_frames` result frames, or just before its done frame for
  /// smaller shards), so the parent sees a truncated stream + a signaled
  /// child - exactly what a real crash looks like.
  std::size_t kill_shard{kNoShard};
  std::size_t kill_after_frames{1};
  /// This shard's worker flips one byte of its first frame's payload after
  /// the CRC was computed, modelling in-flight corruption; the parent must
  /// reject the stream on the CRC check.
  std::size_t corrupt_shard{kNoShard};
};

struct MultiprocOptions {
  /// Worker processes; 0 = one per hardware thread, and never more
  /// processes than plan cells (resolve_workers semantics). <= 1 after
  /// resolution runs the plan in-process with no forks.
  std::size_t processes{0};
  /// Worker *threads* inside each worker process (RunnerOptions
  /// semantics). Defaults to 1: with one process per core, per-process
  /// thread pools would only oversubscribe. Raise it when running few
  /// processes on a large host.
  std::size_t workers{1};
  /// Route each shard through the batch-resident BatchRunner
  /// (run_plan_batched / run_training_plan_batched) instead of the
  /// per-session pool - bit-identical either way, so this only changes
  /// throughput. FleetServerOptions::processes sets it.
  bool batched{false};
  MultiprocFaultPlan faults{};
};

/// What happened to one shard of a sharded sweep.
struct ShardOutcome {
  std::size_t shard{0};
  std::size_t first_cell{0};  ///< plan index of the shard's first cell
  std::size_t cell_count{0};
  /// True when the worker's stream was rejected and the shard was re-run
  /// in the parent process (results still land, bit-identically).
  bool recovered{false};
  /// Why the worker's stream was rejected ("" for a healthy worker):
  /// truncated stream, CRC mismatch, framing violation, nonzero exit,
  /// death by signal, or a fork failure.
  std::string failure;
};

/// Merge-side accounting of one sharded sweep, for tests, the bench and
/// callers that want to surface degraded-but-complete sweeps.
struct ShardReport {
  std::size_t processes{0};  ///< worker processes actually forked
  std::vector<ShardOutcome> shards;
  std::uint64_t frames{0};  ///< result frames accepted off the pipes
  std::uint64_t bytes{0};   ///< frame payload bytes accepted

  [[nodiscard]] std::size_t recovered_shards() const noexcept {
    std::size_t n = 0;
    for (const auto& s : shards) {
      if (s.recovered) ++n;
    }
    return n;
  }
};

/// Executes `plan` sharded across forked worker processes and returns
/// results in plan order, bit-identical to run_plan(plan) (and therefore
/// to serial execution). `report`, when non-null, receives the per-shard
/// accounting including any worker recoveries.
[[nodiscard]] std::vector<SessionResult> run_plan_sharded(const RunPlan& plan,
                                                          const MultiprocOptions& options = {},
                                                          ShardReport* report = nullptr);

/// Training counterpart: bit-identical to run_training_plan(plan) in every
/// field the training determinism contract covers (wall_seconds measures
/// host time in whichever process ran the cell, by definition).
[[nodiscard]] std::vector<TrainingResult> run_training_plan_sharded(
    const TrainingPlan& plan, const MultiprocOptions& options = {},
    ShardReport* report = nullptr);

// --- the wire codec --------------------------------------------------------
// Bit-exact round trip (floats as IEEE-754 bit patterns): deserialize(
// serialize(r)) == r under sim::bit_identical / the training comparator.

void serialize_session_result(const SessionResult& r, ByteWriter& out);
[[nodiscard]] SessionResult deserialize_session_result(ByteReader& in);
void serialize_training_result(const TrainingResult& r, ByteWriter& out);
[[nodiscard]] TrainingResult deserialize_training_result(ByteReader& in);

}  // namespace nextgov::sim
