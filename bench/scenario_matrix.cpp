// scenario_matrix - sweeps the scenario library across the ambient x
// refresh matrix through the parallel runner and tracks the results in
// bench_out/BENCH_scenarios.json.
//
// Four base scenarios (the Fig. 1 session, the two multi-app interleavings
// beyond it, and the bursty-background Spotify) cross three ambients
// (Section V's 15-35 C range) and three panels (60/90/120 Hz, Section I)
// into a 36-cell matrix. Every cell runs under stock schedutil; the JSON
// records per-cell PPDW / power / peak temperature plus the matrix wall
// time serially and across the worker pool, with the runner's bit-identity
// contract checked over the whole matrix (nonzero exit when it breaks).
// A failed or short write of the JSON exits 1 too.
//
// `--smoke` shortens every scenario to 30 s so CI can run the full matrix
// on every PR; smoke numbers are CI-health signals, not trajectory points.
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "sim/scenario.hpp"

int main(int argc, char** argv) {
  using namespace nextgov;
  using namespace nextgov::bench;

  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  print_header("scenarios", smoke ? "scenario x ambient x refresh matrix (smoke mode)"
                                  : "scenario x ambient x refresh matrix");

  const char* base_scenarios[] = {"fig1_session", "social_gaming", "commute_media",
                                  "spotify_bursty"};
  sim::ScenarioMatrix matrix;
  for (const char* name : base_scenarios) {
    sim::ScenarioSpec spec = sim::scenario(name);
    if (smoke) spec.duration = SimTime::from_seconds(30.0);
    matrix.add(std::move(spec));
  }
  matrix.ambients({15.0, 25.0, 35.0}).refresh_rates({60.0, 90.0, 120.0});

  // One expansion feeds both the labels and the plan, so JSON/console rows
  // stay aligned with plan rows by construction.
  const auto cells = matrix.expand();
  sim::RunPlan plan;
  sim::append_cells(plan, cells, sim::GovernorKind::kSchedutil);
  std::printf("  %zu cells (%zu scenarios x 3 ambients x 3 refresh rates)\n", plan.size(),
              std::size(base_scenarios));

  // Shared serial-vs-pool measurement + bit-identity gate (bench_util).
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const PlanTiming timing = time_run_plan(plan, hw);

  std::printf("  %-34s %8s %9s %9s %7s %9s\n", "cell", "power_W", "pk_big_C", "pk_dev_C",
              "fps", "ppdw");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const sim::SessionResult& r = timing.serial_results[i];
    std::printf("  %-34s %8.3f %9.1f %9.1f %7.1f %9.4f\n", cells[i].spec.name.c_str(),
                r.avg_power_w, r.peak_temp_big_c, r.peak_temp_device_c, r.avg_fps,
                r.avg_ppdw);
  }
  if (timing.can_measure_speedup) {
    std::printf("\n  matrix wall: serial %.2f s, %zu workers %.2f s -> %.2fx, %s\n",
                timing.serial_s, timing.workers, timing.parallel_s, timing.speedup,
                timing.bit_identical ? "bit-identical" : "RESULTS DIVERGED");
  } else {
    std::printf("\n  matrix wall: serial %.2f s; speedup skipped (1 hardware thread), "
                "bit-identity (%zu threads): %s\n",
                timing.serial_s, timing.contract_workers,
                timing.bit_identical ? "bit-identical" : "RESULTS DIVERGED");
  }

  // --- JSON trajectory file ---------------------------------------------
  const std::string path = out_dir() + "/BENCH_scenarios.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"scenario_matrix\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"hardware_threads\": %u,\n", hw);
  std::fprintf(out, "  \"cells\": %zu,\n", cells.size());
  std::fprintf(out, "  \"matrix\": {\n");
  std::fprintf(out, "    \"serial_wall_s\": %.4f,\n", timing.serial_s);
  if (timing.can_measure_speedup) {
    std::fprintf(out, "    \"status\": \"ok\",\n");
    std::fprintf(out, "    \"workers\": %zu,\n", timing.workers);
    std::fprintf(out, "    \"parallel_wall_s\": %.4f,\n", timing.parallel_s);
    std::fprintf(out, "    \"speedup\": %.3f,\n", timing.speedup);
  } else {
    std::fprintf(out, "    \"status\": \"skipped: single hardware thread\",\n");
    std::fprintf(out, "    \"speedup\": null,\n");
  }
  std::fprintf(out, "    \"bit_identical\": %s\n", timing.bit_identical ? "true" : "false");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const sim::SessionResult& r = timing.serial_results[i];
    std::fprintf(out,
                 "    {\"cell\": \"%s\", \"avg_power_w\": %.6f, \"peak_temp_big_c\": %.3f, "
                 "\"peak_temp_device_c\": %.3f, \"avg_fps\": %.3f, \"avg_ppdw\": %.6f, "
                 "\"energy_j\": %.4f, \"frames_dropped\": %lld}%s\n",
                 cells[i].spec.name.c_str(), r.avg_power_w, r.peak_temp_big_c,
                 r.peak_temp_device_c, r.avg_fps, r.avg_ppdw, r.energy_j,
                 static_cast<long long>(r.frames_dropped),
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
  // The stream's error flag is sticky, so one check covers every fprintf;
  // fclose reports what the final flush could not write.
  const bool written = std::ferror(out) == 0;
  if (std::fclose(out) != 0 || !written) {
    std::fprintf(stderr, "short write to %s\n", path.c_str());
    return 1;
  }
  std::printf("  -> %s\n\n", path.c_str());
  return timing.bit_identical ? 0 : 1;
}
