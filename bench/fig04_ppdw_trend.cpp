// fig04_ppdw_trend - reproduces the paper's Fig. 4: PPDW as a function of
// achieved FPS on Lineage 2 Revolution.
//
// Protocol (mirroring the paper's measurement):
//   * the "governed" series caps the game's frame rate at 10..60 FPS
//     (in-game limiter = cadence demand) and runs it under the trained Next
//     agent: PPDW rises with FPS (paper values 0.2337 ... 0.5316);
//   * the "worst" series (the paper's red points at FPS 0/1/10) forces all
//     clusters to maximum frequency while the game renders almost nothing -
//     maximum power and temperature for minimal performance.
#include <cstdio>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "workload/apps.hpp"
#include "workload/phased_app.hpp"

namespace {

using namespace nextgov;

/// Lineage with every continuous phase converted into a fixed-rate cadence
/// (a frame-rate limiter), so the session settles at the requested FPS.
workload::AppSpec limited_lineage(double fps_cap) {
  workload::AppSpec spec = workload::lineage_spec();
  for (auto& phase : spec.phases) {
    if (phase.demand == workload::FrameDemand::kContinuous) {
      phase.demand = workload::FrameDemand::kCadence;
      phase.cadence_fps = fps_cap;
    } else if (phase.demand == workload::FrameDemand::kCadence) {
      phase.cadence_fps = std::min(phase.cadence_fps, fps_cap);
    }
  }
  return spec;
}

}  // namespace

int main() {
  using namespace nextgov::bench;

  print_header("Fig. 4", "PPDW vs FPS on Lineage 2 (governed trend + worst-case points)");

  // Paper's governed-series values for reference (FPS ~10..60).
  const double paper_governed[] = {0.2337, 0.3045, 0.3857, 0.4384, 0.5147, 0.5316};
  const double fps_caps[] = {10, 20, 30, 40, 50, 60};

  CsvWriter csv{out_dir() + "/fig04_ppdw_trend.csv",
                {"series", "fps", "ppdw", "power_w", "temp_big_c"}};

  std::printf("%10s %8s %10s %10s %12s %14s\n", "series", "fps", "ppdw", "power_W",
              "temp_big_C", "paper_ppdw");

  // Train one agent per cap - all six cells fan out across the runner's
  // worker pool via one TrainingPlan - then run every evaluation session
  // (the governed trend and the worst-case red points) through a single
  // runner plan.
  const auto factory_for = [](double cap) {
    return [cap](std::uint64_t seed) {
      return std::make_unique<workload::PhasedApp>(limited_lineage(cap), Rng{seed});
    };
  };
  sim::TrainingPlan tplan;
  for (std::size_t i = 0; i < 6; ++i) {
    tplan.add(factory_for(fps_caps[i]), "lineage_capped",
              core::NextConfig{}, eval_training_options(sim::derive_seed(40, i), 1000.0));
  }
  const std::vector<sim::TrainingResult> trained = sim::execute(tplan);

  const double paper_worst[] = {0.0, 0.0039, 0.0395};
  const double worst_caps[] = {0.25, 1, 10};  // 0.25 FPS ~ "0" on the plot

  sim::RunPlan plan;
  for (std::size_t i = 0; i < 6; ++i) {
    sim::ExperimentConfig cfg;
    cfg.governor = sim::GovernorKind::kNext;
    cfg.trained_table = &trained[i].table;
    cfg.duration = SimTime::from_seconds(300.0);
    cfg.seed = 7;
    plan.add(factory_for(fps_caps[i]), "lineage_capped", cfg);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    sim::ExperimentConfig cfg;
    cfg.governor = sim::GovernorKind::kPerformance;  // max power, max heat
    cfg.duration = SimTime::from_seconds(300.0);
    cfg.seed = 7;
    plan.add(factory_for(worst_caps[i]), "lineage_worst", cfg);
  }
  const auto results = sim::execute(plan);

  for (std::size_t i = 0; i < 9; ++i) {
    const sim::SessionResult& r = results[i];
    const bool governed = i < 6;
    const double paper = governed ? paper_governed[i] : paper_worst[i - 6];
    const double measured_ppdw =
        core::ppdw(r.avg_fps, Watts{r.avg_power_w}, Celsius{r.avg_temp_big_c}, Celsius{21.0});
    std::printf("%10s %8.1f %10.4f %10.2f %12.1f %14.4f\n", governed ? "governed" : "worst",
                r.avg_fps, measured_ppdw, r.avg_power_w, r.avg_temp_big_c, paper);
    csv.row_strings({governed ? "governed" : "worst", std::to_string(r.avg_fps),
                     std::to_string(measured_ppdw), std::to_string(r.avg_power_w),
                     std::to_string(r.avg_temp_big_c)});
  }

  std::printf("\nexpected shape: governed PPDW rises with FPS; worst-case points sit\n"
              "orders of magnitude below the governed series (paper's red markers).\n");
  std::printf("series -> %s/fig04_ppdw_trend.csv\n\n", out_dir().c_str());
  return 0;
}
