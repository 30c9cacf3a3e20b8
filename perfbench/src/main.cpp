// main.cpp - the benchmark binary.
//
//   perfbench --workload <phone_deploy|train_eval_sweep|fleet_churn>
//             --seed <n> --seconds <n> --trace <0|1> [--scratch <dir>]
//   perfbench --list-metrics
//
// Prints every metric the workload measured as "name = value unit" lines,
// then, as the last line, one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). Exits 1 when an output
// check failed, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "alloc_count.hpp"
#include "common/parse.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr auto kEndToEnd = std::to_array<MetricDef>({
    {"setup_s", "s", false, Better::kLower},
    {"peak_heap_mb", "MB", false, Better::kLower},
    {"sim_s_per_host_s", "sim-s/s", false, Better::kHigher},
    {"op_ms_p50", "ms", false, Better::kLower},
    {"mean_reward", "reward", true, Better::kHigher},
});

constexpr auto kPerLayer = std::to_array<MetricDef>({
    // Engine layers, driven by every workload: ns per session-step.
    {"workload_render.ns_per_step", "ns", false, Better::kLower},
    {"soc.power_ns_per_step", "ns", false, Better::kLower},
    {"thermal.rc_ns_per_step", "ns", false, Better::kLower},
    {"governors.observe_ns_per_step", "ns", false, Better::kLower},
    {"core.post_ns_per_step", "ns", false, Better::kLower},
    {"core.ns_per_decision", "ns", false, Better::kLower},
    // Shares of the workload's untraced unit of work.
    {"sim.train_pct", "%", false, Better::kLower},
    {"sim.codec_pct", "%", false, Better::kLower},
    {"rl.merge_pct", "%", false, Better::kLower},
    {"common.snapshot_write_pct", "%", false, Better::kLower},
    {"sim.op_p90_over_p50", "ratio", false, Better::kLower},
    {"sim.serial_ref_ratio", "ratio", false, Better::kHigher},
    // Counts, deterministic at a fixed seed.
    {"core.decisions", "count", true, Better::kHigher},
    {"rl.states", "count", true, Better::kLower},
    {"sim.allocs_per_step", "count", true, Better::kLower},
    {"sim.allocs_per_round", "count", true, Better::kLower},
    {"sim.lockstep_frac", "fraction", true, Better::kHigher},
    {"fidelity.power_saving_pct", "%", true, Better::kHigher},
    {"fidelity.temp_big_reduction_pct", "%", true, Better::kHigher},
    {"fidelity.fps_ratio_pct", "%", true, Better::kHigher},
    {"common.ring_entry_bytes", "B", true, Better::kLower},
    {"sim.upload_attempts", "count", true, Better::kLower},
    {"sim.uploads_retried", "count", true, Better::kLower},
    {"sim.uploads_lost", "count", true, Better::kLower},
    {"sim.uploads_delta_frac", "fraction", true, Better::kHigher},
    {"sim.upload_bytes_per_round", "B", true, Better::kLower},
    {"sim.quorum_frac", "fraction", true, Better::kHigher},
    // Attribution quality and the cost of tracing.
    {"trace.remainder_pct", "%", false, Better::kLower},
    {"trace.overhead_pct", "%", false, Better::kLower},
});

}  // namespace

std::span<const MetricDef> end_to_end_metrics() noexcept { return kEndToEnd; }
std::span<const MetricDef> per_layer_metrics() noexcept { return kPerLayer; }

namespace {

/// Peak resident set of this process, in MB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

std::size_t bench_workers() noexcept {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 2);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <phone_deploy|train_eval_sweep|fleet_churn> "
               "--seed <n> --seconds <n> --trace <0|1> [--scratch <dir>]\n"
               "       perfbench --list-metrics\n");
  return 2;
}

void list_metrics() {
  const auto print = [](const char* kind, std::span<const MetricDef> defs) {
    for (const MetricDef& m : defs) {
      std::printf("%s %.*s %.*s %s %s\n", kind, static_cast<int>(m.name.size()), m.name.data(),
                  static_cast<int>(m.unit.size()), m.unit.data(),
                  m.better == Better::kHigher ? "higher" : "lower",
                  m.deterministic ? "deterministic" : "measured");
    }
  };
  print("end_to_end", end_to_end_metrics());
  print("per_layer", per_layer_metrics());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunArgs args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed" && nextgov::parse_u64(value, n)) {
      args.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && nextgov::parse_u64(value, n) && n >= 1 && n <= 3600) {
      args.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" && (std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0)) {
      args.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();

  void (*run)(const RunArgs&, RunResult&) = nullptr;
  if (workload == "phone_deploy") run = run_phone_deploy;
  if (workload == "train_eval_sweep") run = run_train_eval_sweep;
  if (workload == "fleet_churn") run = run_fleet_churn;
  if (run == nullptr) return usage();

  RunResult result;
  try {
    std::filesystem::create_directories(args.scratch);
    run(args, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }
  result.measured.add("peak_heap_mb", static_cast<double>(peak_heap_bytes()) / (1024.0 * 1024.0),
                      "MB");
  result.measured.add("peak_rss_mb", peak_rss_mb(), "MB");

  std::string trace_path;
  if (args.trace && !result.trace.empty()) {
    trace_path = args.scratch + "/trace-" + workload + "-" + std::to_string(args.seed) + ".jsonl";
    result.checks.expect(result.trace.write_json_lines(trace_path), "trace file not written");
  }

  // The result line: BENCHMARK.json's metric set. A per-layer metric the
  // workload did not measure belongs to a layer it bypasses and reads 0.
  Report report;
  for (const MetricDef& m : args.trace ? per_layer_metrics() : end_to_end_metrics()) {
    const Metric* measured = result.measured.find(m.name);
    result.checks.expect(args.trace || measured != nullptr, "end-to-end metric not measured");
    result.checks.expect(measured == nullptr || measured->unit == m.unit,
                         "metric measured in another unit than the catalogue's");
    const double value = measured == nullptr ? 0.0 : measured->value;
    result.checks.expect(std::isfinite(value), "metric is not a finite number");
    report.add(std::string{m.name}, value, std::string{m.unit});
  }

  // Human-readable: everything the workload measured, by name with unit.
  std::printf("workload %s, seed %llu, %s run\n", workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? "traced" : "untraced");
  for (const Metric& m : result.measured.metrics()) {
    std::printf("  %-34s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-34s = %.6g fraction (%llu checks)\n", "failed_frac",
              static_cast<double>(result.checks.failed()) /
                  static_cast<double>(result.checks.attempted()),
              static_cast<unsigned long long>(result.checks.attempted()));
  if (!trace_path.empty()) {
    std::printf("  trace: %zu spans -> %s\n", result.trace.spans().size(), trace_path.c_str());
  }
  std::printf("%s\n", report.json(result.checks).c_str());
  if (result.checks.failed() == 0) return 0;
  std::fprintf(stderr, "perfbench: %llu of %llu output checks failed\n",
               static_cast<unsigned long long>(result.checks.failed()),
               static_cast<unsigned long long>(result.checks.attempted()));
  return 1;
}
