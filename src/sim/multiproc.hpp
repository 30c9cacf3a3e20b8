// multiproc.hpp - the multi-process path of execute() (fork + pipe).
//
// One process tops out at its threads; execute() with
// ExecOptions::processes > 1 takes the next rung and shards a RunPlan /
// TrainingPlan across OS *processes*. It forks N workers (plain fork +
// pipe - no MPI, no sockets, no external dependency), gives each a
// contiguous shard of the plan to run through execute() in-process (with
// the caller's workers and max_batch), and streams every result back over
// the worker's pipe as length-prefixed, CRC32-guarded frames encoded with
// common/serialize's ByteWriter. The parent merges frames into plan order,
// so the merged vector is *bit-identical* to the in-process path - the
// runner's determinism contract, asserted by tests/sim/multiproc_test.cpp
// and the perf_multiproc bench gate.
//
// Failure model: degrade, never wedge. A worker that dies (EOF before its
// done frame, SIGKILL mid-stream), corrupts a frame (CRC mismatch, framing
// violation) or exits nonzero has its *entire shard* re-run in the parent
// process through the very same in-process execute(), which by the
// determinism contract reproduces the exact bytes the worker would have
// sent. Every shard's fate is surfaced in a ShardReport so callers can see
// recoveries happened; nothing is silently dropped and no worker failure
// can stall the sweep. ExecOptions::faults injects such failures.
//
// Because every result crosses a process boundary, the wire codec below
// round-trips SessionResult / TrainingResult bit-exactly (floats travel as
// IEEE-754 bit patterns via ByteWriter); the codec is exposed for tests and
// for tools that persist merged sweep results (examples/matrix_sweep.cpp).
#pragma once

#include <vector>

#include "common/serialize.hpp"
#include "sim/runner.hpp"

namespace nextgov::sim {

namespace detail {
/// execute()'s processes > 1 path (call execute() instead): forks
/// resolve_workers(options.processes, cells) workers and merges their
/// frames, re-running failed shards in-process.
[[nodiscard]] std::vector<SessionResult> execute_sharded(const RunPlan& plan,
                                                         const ExecOptions& options,
                                                         ShardReport* report);
[[nodiscard]] std::vector<TrainingResult> execute_sharded(const TrainingPlan& plan,
                                                          const ExecOptions& options,
                                                          ShardReport* report);
}  // namespace detail

// --- the wire codec --------------------------------------------------------
// Bit-exact round trip (floats as IEEE-754 bit patterns): deserialize(
// serialize(r)) == r under sim::bit_identical / the training comparator.

void serialize_session_result(const SessionResult& r, ByteWriter& out);
[[nodiscard]] SessionResult deserialize_session_result(ByteReader& in);
void serialize_training_result(const TrainingResult& r, ByteWriter& out);
[[nodiscard]] TrainingResult deserialize_training_result(ByteReader& in);

}  // namespace nextgov::sim
