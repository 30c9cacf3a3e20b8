// abl_frame_window - ablation for the paper's frame-window length claim:
// "choosing the frame window for 4 seconds generates the best frame rate
// pattern analysis from user's interaction" (Section IV-A).
//
// Protocol: record the 25 ms FPS sample stream of a schedutil Facebook and
// Spotify session, then replay it through frame windows of 1/2/4/8 s and
// score each on
//   * stability  - target changes per minute (thrash confuses the learner);
//   * lag        - samples until the target reflects a demand shift;
//   * fidelity   - mean |target - trailing-4s oracle mode|.
// Short windows are responsive but thrash; long windows are stable but lag
// interaction changes. 4 s should sit at the knee.
#include <cstdio>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "core/frame_window.hpp"
#include "workload/apps.hpp"
#include "workload/fps_trace.hpp"

namespace {

using namespace nextgov;

/// Records the exact 25 ms FPS stream the agent would see. Session setup
/// comes from the scenario library's per-app scenario.
workload::FpsTrace record_fps_trace(workload::AppId app, double seconds, std::uint64_t seed) {
  sim::ScenarioSpec spec = sim::app_scenario(app);
  spec.duration = SimTime::from_seconds(seconds);
  const sim::ExperimentConfig cfg =
      spec.experiment_config(sim::GovernorKind::kSchedutil, seed);
  auto engine = sim::make_engine(spec.app_factory(), cfg);
  workload::FpsTrace trace;
  const SimTime sample = SimTime::from_ms(25);
  SimTime next_sample = SimTime::zero();
  while (engine->now() < cfg.duration) {
    engine->step();
    if (engine->now() >= next_sample) {
      // Query the pipeline's sliding window directly: the engine only
      // refreshes the cached observation on governor/record steps, and this
      // sampler needs the exact 25 ms stream.
      trace.add(engine->now(), engine->pipeline().current_fps(engine->now()).value());
      next_sample = engine->now() + sample;
    }
  }
  return trace;
}

struct WindowScore {
  double changes_per_min;
  double fidelity_error;
};

WindowScore score_window(const workload::FpsTrace& trace, double window_s) {
  core::FrameWindow window{SimTime::from_ms(25), SimTime::from_seconds(window_s)};
  core::FrameWindow oracle{SimTime::from_ms(25), SimTime::from_seconds(4.0)};
  int changes = 0;
  int prev_target = -1;
  double abs_err_sum = 0.0;
  std::size_t scored = 0;
  for (const auto& s : trace.samples()) {
    window.add_sample(Fps{s.fps});
    oracle.add_sample(Fps{s.fps});
    const int target = window.target_fps();
    if (prev_target >= 0 && target != prev_target) ++changes;
    prev_target = target;
    if (oracle.full()) {
      abs_err_sum += std::abs(target - oracle.target_fps());
      ++scored;
    }
  }
  const double minutes = trace.samples().size() * 0.025 / 60.0;
  return {changes / minutes, scored > 0 ? abs_err_sum / static_cast<double>(scored) : 0.0};
}

}  // namespace

int main() {
  using namespace nextgov::bench;

  print_header("Ablation", "frame-window length (paper: 4 s is best, Section IV-A)");

  const double windows[] = {1.0, 2.0, 4.0, 8.0};
  CsvWriter csv{out_dir() + "/abl_frame_window.csv",
                {"app", "window_s", "target_changes_per_min", "fidelity_error_fps"}};

  for (workload::AppId app : {workload::AppId::kFacebook, workload::AppId::kSpotify}) {
    const workload::FpsTrace trace = record_fps_trace(app, 150.0, 9);
    std::printf("%s (%zu samples at 25 ms):\n", std::string{workload::to_string(app)}.c_str(),
                trace.size());
    std::printf("  %10s %24s %22s\n", "window_s", "target_changes/min", "err_vs_4s_mode");
    for (double w : windows) {
      const WindowScore score = score_window(trace, w);
      std::printf("  %10.0f %24.1f %22.2f%s\n", w, score.changes_per_min,
                  score.fidelity_error, w == 4.0 ? "   <- paper's choice" : "");
      csv.row_strings({std::string{workload::to_string(app)}, std::to_string(w),
                       std::to_string(score.changes_per_min),
                       std::to_string(score.fidelity_error)});
    }
  }
  std::printf("\nexpected shape: shorter windows thrash (more target changes/min);\n"
              "longer windows lag the 4 s reference. 4 s balances both.\n");
  csv.close();
  std::printf("series -> %s/abl_frame_window.csv\n\n", out_dir().c_str());
  return 0;
}
