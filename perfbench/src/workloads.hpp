// workloads.hpp - the three benchmark workloads and the metric catalogue.
//
// Every workload reports every end-to-end metric (the same five names, each
// measured on the path that workload drives) and, in the traced run, every
// per-layer metric. Per-layer times are those of the engine layers, which
// every workload drives; a workload-specific layer is reported as its share
// of the workload's unit of work, or as a count, and reads 0 where the
// workload bypasses it. BENCHMARK.json at the repository root lists the
// same names.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Better { kLower, kHigher };

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  /// Identical on every run at a fixed seed (a count or a simulated value).
  bool deterministic;
  Better better;
};

/// End-to-end metrics, measured with tracing off.
[[nodiscard]] std::span<const MetricDef> end_to_end_metrics() noexcept;
/// Per-layer metrics, reported by the traced run.
[[nodiscard]] std::span<const MetricDef> per_layer_metrics() noexcept;

struct RunArgs {
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Writable directory inside the benchmark's build directory, for
  /// snapshot rings and the trace file.
  std::string scratch{"."};
};

/// What a workload hands back: every value it measured (catalogue metrics
/// and printed-only details alike), the output checks, and (traced run)
/// the spans.
struct RunResult {
  Report measured;
  Checks checks;
  Trace trace;
};

void run_phone_deploy(const RunArgs& args, RunResult& out);
void run_train_eval_sweep(const RunArgs& args, RunResult& out);
void run_fleet_churn(const RunArgs& args, RunResult& out);

/// Worker threads for the pooled paths: the host's hardware threads, at
/// most 2. On a shared 4-vCPU host a pool as wide as the machine times the
/// scheduler more than the program (train_eval_sweep's throughput spread
/// about 25 % across runs with 4 workers).
[[nodiscard]] std::size_t bench_workers() noexcept;

}  // namespace perfbench
