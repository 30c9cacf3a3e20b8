// matrix_sweep - run a scenario matrix sharded across worker processes and
// persist the merged results canonically.
//
//   usage: example_matrix_sweep [--processes N] [--workers N] [--out PATH]
//                               [--kill-shard K] [--governor NAME]
//
// The matrix is fixed (4 library scenarios x 3 seeds = 12 cells) so two
// invocations differing only in --processes produce byte-for-byte identical
// --out files - that is the bit-identity contract of sim::execute(), and
// the CI sharded-sweep smoke asserts it with a plain `cmp`:
//
//   example_matrix_sweep --processes 1 --out a.bin
//   example_matrix_sweep --processes 2 --out b.bin
//   cmp a.bin b.bin
//
// --kill-shard K makes shard K's worker SIGKILL itself mid-stream
// (MultiprocFaultPlan), exercising the degrade-never-wedge recovery path:
// the parent re-runs the shard in-process and the output file must STILL
// compare equal - the CI kill-a-worker smoke step.
//
// The --out file is the concatenation of every cell's wire encoding
// (sim::serialize_session_result) in cell order, prefixed with the cell
// count - canonical bytes, so `cmp` is a complete equality check.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "sim/multiproc.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace nextgov;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--processes N] [--workers N] [--out PATH] [--kill-shard K]\n"
               "          [--governor schedutil|performance|powersave|ondemand|intqos|next]\n"
               "  N = 0 forks one worker per hardware thread (default 1 = in-process)\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // One worker thread per process unless --workers says otherwise: with
  // one process per core, per-process thread pools would only
  // oversubscribe.
  sim::ExecOptions exec{.workers = 1};
  std::string out_path;
  std::string governor_name = "schedutil";
  for (int i = 1; i < argc; ++i) {
    const auto flag = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
    };
    if (flag("--processes") && parse_count(argv[++i], exec.processes)) continue;
    if (flag("--workers") && parse_count(argv[++i], exec.workers)) continue;
    if (flag("--kill-shard") && parse_count(argv[++i], exec.faults.kill_shard)) continue;
    if (flag("--governor")) {
      governor_name = argv[++i];
      continue;
    }
    if (flag("--out")) {
      out_path = argv[++i];
      continue;
    }
    return usage(argv[0]);
  }

  sim::GovernorKind governor;
  if (governor_name == "schedutil") governor = sim::GovernorKind::kSchedutil;
  else if (governor_name == "performance") governor = sim::GovernorKind::kPerformance;
  else if (governor_name == "powersave") governor = sim::GovernorKind::kPowersave;
  else if (governor_name == "ondemand") governor = sim::GovernorKind::kOndemand;
  else if (governor_name == "intqos") governor = sim::GovernorKind::kIntQos;
  else if (governor_name == "next") governor = sim::GovernorKind::kNext;
  else return usage(argv[0]);

  // 4 scenarios x 3 seeds = 12 cells: the paper session plus a multi-app
  // interleaving, a bursty-background point and a hot-ambient game.
  sim::ScenarioMatrix matrix;
  matrix.add("fig1_session")
      .add("social_gaming")
      .add("spotify_bursty")
      .add("pubg_hot35")
      .seeds(3);

  std::printf("sweeping %zu cells under %s, processes=%zu workers=%zu%s\n",
              matrix.size(), governor_name.c_str(), exec.processes, exec.workers,
              exec.faults.kill_shard == sim::kNoShard
                  ? ""
                  : " (injecting a worker kill)");

  sim::ShardReport report;
  const std::vector<sim::SessionResult> results =
      sim::execute(matrix.to_run_plan(governor), exec, &report);

  std::printf("%-36s %11s %10s %8s\n", "cell", "avg_power_W", "peak_T_C", "avg_FPS");
  for (const auto& r : results) {
    std::printf("%-36s %11.3f %10.1f %8.1f\n", r.app.c_str(), r.avg_power_w,
                r.peak_temp_big_c, r.avg_fps);
  }
  std::printf("%zu worker processes, %llu frames / %llu payload bytes merged",
              report.processes, static_cast<unsigned long long>(report.frames),
              static_cast<unsigned long long>(report.bytes));
  if (report.recovered_shards() > 0) {
    std::printf(", %zu shard(s) recovered in-process:\n", report.recovered_shards());
    for (const auto& s : report.shards) {
      if (s.recovered) std::printf("  shard %zu: %s\n", s.shard, s.failure.c_str());
    }
  } else {
    std::printf("\n");
  }

  if (!out_path.empty()) {
    ByteWriter out;
    out.u64(results.size());
    for (const auto& r : results) sim::serialize_session_result(r, out);
    std::FILE* f = std::fopen(out_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "matrix_sweep: cannot open '%s' for writing\n", out_path.c_str());
      return 1;
    }
    const bool ok = std::fwrite(out.data().data(), 1, out.size(), f) == out.size();
    if (std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "matrix_sweep: short write to '%s'\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %zu canonical result bytes to %s\n", out.size(), out_path.c_str());
  }
  return 0;
}
