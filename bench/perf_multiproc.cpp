// perf_multiproc - multi-process sharded sweep scaling and recovery.
//
// Writes bench_out/BENCH_multiproc.json with:
//
//   1. the process-scaling curve: one >= 12-cell scenario matrix swept at
//      P = 1 (in-process reference), 2 and 4 worker processes, wall time
//      and speedup per point;
//   2. the bit-identity gate: every sharded sweep's merged results compared
//      cell-by-cell (sim::bit_identical) against the in-process reference -
//      the contract sim::execute() promises. The bench exits nonzero
//      if any point diverges;
//   3. per-shard overhead: result frames / payload bytes crossing the pipes
//      (from ShardReport) and the fork+serialize overhead, measured as
//      sharded wall at P=1... well, P=1 runs in-process by design, so
//      overhead is reported as (sharded wall at P=2) vs (2-thread wall);
//   4. the recovery gates: a SIGKILLed worker and a frame-corrupting worker
//      must each be detected, their shards re-run in the parent, and the
//      merged results must STILL be bit-identical - degrade, never wedge.
//
// Every run below takes the per-session path (max_batch = 1) with one
// worker thread per process, so the curve measures process sharding alone.
//
// `--smoke` shrinks the matrix so CI can run it on every PR.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sim/multiproc.hpp"
#include "sim/scenario.hpp"

using namespace nextgov;
using namespace nextgov::bench;

namespace {

bool all_bit_identical(const std::vector<sim::SessionResult>& a,
                       const std::vector<sim::SessionResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!sim::bit_identical(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  print_header("perf", smoke ? "multi-process sharded sweeps (smoke mode)"
                             : "multi-process sharded sweeps");

  // 4 scenarios x 3 seeds = 12 cells (the acceptance floor) - the same
  // matrix examples/matrix_sweep.cpp sweeps, so CI's cmp smoke and this
  // gate exercise one configuration. Smoke keeps all 12 cells (the gate is
  // about shard geometry, not session length) but trims each to 30 s.
  sim::ScenarioMatrix matrix;
  for (const char* name : {"fig1_session", "social_gaming", "spotify_bursty", "pubg_hot35"}) {
    sim::ScenarioSpec spec = sim::scenario(name);
    if (smoke) spec.duration = SimTime::from_seconds(30.0);
    matrix.add(std::move(spec));
  }
  matrix.seeds(3);
  const sim::RunPlan plan = matrix.to_run_plan(sim::GovernorKind::kSchedutil);
  std::printf("  matrix: %zu cells\n", plan.size());

  // --- in-process reference + scaling curve -------------------------------
  std::vector<sim::SessionResult> reference;
  const double serial_s = wall_seconds(
      [&] { reference = sim::execute(plan, {.workers = 1, .max_batch = 1}); });
  std::printf("  P=1 (in-process): %.3f s\n", serial_s);

  struct Point {
    std::size_t processes{0};
    double wall_s{0.0};
    double speedup{0.0};
    bool bit_identical{false};
    std::uint64_t frames{0};
    std::uint64_t bytes{0};
  };
  std::vector<Point> curve;
  bool scaling_identical = true;
  for (const std::size_t p : {std::size_t{2}, std::size_t{4}}) {
    Point pt;
    pt.processes = p;
    sim::ShardReport report;
    std::vector<sim::SessionResult> results;
    pt.wall_s = wall_seconds([&] {
      results = sim::execute(plan, {.workers = 1, .max_batch = 1, .processes = p}, &report);
    });
    pt.speedup = pt.wall_s > 0.0 ? serial_s / pt.wall_s : 0.0;
    pt.bit_identical = all_bit_identical(reference, results) &&
                       report.recovered_shards() == 0;
    pt.frames = report.frames;
    pt.bytes = report.bytes;
    scaling_identical = scaling_identical && pt.bit_identical;
    std::printf("  P=%zu: %.3f s (x%.2f), %llu frames / %llu bytes merged, %s\n", p,
                pt.wall_s, pt.speedup, static_cast<unsigned long long>(pt.frames),
                static_cast<unsigned long long>(pt.bytes),
                pt.bit_identical ? "bit-identical" : "RESULTS DIVERGED");
    curve.push_back(pt);
  }

  // --- per-shard overhead: sharded vs same-width threaded -----------------
  const double threaded2_s =
      wall_seconds([&] { (void)sim::execute(plan, {.workers = 2, .max_batch = 1}); });
  const double overhead_s = curve[0].wall_s - threaded2_s;
  std::printf("  overhead: P=2 sharded %.3f s vs 2-thread %.3f s -> %+.3f s "
              "(fork + wire codec)\n",
              curve[0].wall_s, threaded2_s, overhead_s);

  // --- recovery gates ------------------------------------------------------
  // A SIGKILLed worker: shard 0 dies after its first result frame; the
  // parent must re-run shard 0 in-process and still merge identical bytes.
  sim::ShardReport kill_report;
  std::vector<sim::SessionResult> kill_results;
  const double kill_s = wall_seconds([&] {
    kill_results = sim::execute(
        plan, {.workers = 1, .max_batch = 1, .processes = 2, .faults = {.kill_shard = 0}},
        &kill_report);
  });
  const bool kill_recovered = kill_report.recovered_shards() == 1 &&
                              all_bit_identical(reference, kill_results);
  std::printf("  kill-a-worker: %zu shard recovered in %.3f s, %s\n",
              kill_report.recovered_shards(), kill_s,
              kill_recovered ? "bit-identical" : "RECOVERY FAILED");

  // A frame-corrupting worker: shard 1 flips a payload byte; the CRC check
  // must reject the stream and the shard must be re-run.
  sim::ShardReport corrupt_report;
  std::vector<sim::SessionResult> corrupt_results;
  corrupt_results = sim::execute(
      plan, {.workers = 1, .max_batch = 1, .processes = 2, .faults = {.corrupt_shard = 1}},
      &corrupt_report);
  const bool corrupt_recovered = corrupt_report.recovered_shards() == 1 &&
                                 all_bit_identical(reference, corrupt_results);
  std::printf("  corrupt-frame: %zu shard recovered, %s\n",
              corrupt_report.recovered_shards(),
              corrupt_recovered ? "bit-identical" : "RECOVERY FAILED");

  const bool all_gates = scaling_identical && kill_recovered && corrupt_recovered;

  // --- JSON trajectory file ----------------------------------------------
  const std::string path = out_dir() + "/BENCH_multiproc.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"perf_multiproc\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"matrix_cells\": %zu,\n", plan.size());
  std::fprintf(out, "  \"serial_wall_s\": %.4f,\n", serial_s);
  std::fprintf(out, "  \"scaling\": [\n");
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const Point& pt = curve[i];
    std::fprintf(out,
                 "    {\"processes\": %zu, \"wall_s\": %.4f, \"speedup\": %.3f, "
                 "\"frames\": %llu, \"payload_bytes\": %llu, \"bit_identical\": %s}%s\n",
                 pt.processes, pt.wall_s, pt.speedup,
                 static_cast<unsigned long long>(pt.frames),
                 static_cast<unsigned long long>(pt.bytes),
                 pt.bit_identical ? "true" : "false", i + 1 < curve.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"overhead\": {\n");
  std::fprintf(out, "    \"sharded_p2_wall_s\": %.4f,\n", curve[0].wall_s);
  std::fprintf(out, "    \"threaded_w2_wall_s\": %.4f,\n", threaded2_s);
  std::fprintf(out, "    \"delta_s\": %.4f\n", overhead_s);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"recovery\": {\n");
  std::fprintf(out, "    \"killed_worker\": {\"recovered_shards\": %zu, "
                    "\"bit_identical\": %s, \"wall_s\": %.4f},\n",
               kill_report.recovered_shards(), kill_recovered ? "true" : "false", kill_s);
  std::fprintf(out, "    \"corrupt_frame\": {\"recovered_shards\": %zu, "
                    "\"bit_identical\": %s}\n",
               corrupt_report.recovered_shards(), corrupt_recovered ? "true" : "false");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"determinism\": {\n");
  std::fprintf(out, "    \"processes\": [1, 2, 4],\n");
  std::fprintf(out, "    \"bit_identical\": %s\n", all_gates ? "true" : "false");
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("  -> %s\n\n", path.c_str());
  return all_gates ? 0 : 1;
}
