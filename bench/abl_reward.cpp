// abl_reward - ablation of the paper's central metric claim (Section III-B):
// "most of the existing studies focus on maximizing performance per watt
// (PPW), however ... reducing power consumption as well as the temperature
// of the device is very important ... trying to maximize PPW is not enough."
//
// Trains Next on Lineage with three rewards - PPDW (the paper's), PPW (no
// thermal term) and FPS-only tracking - and compares deployed power, peak
// temperature and QoS. PPDW should dominate PPW on peak temperature at
// comparable QoS; FPS-only should save nothing.
#include <cstdio>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "workload/apps.hpp"

int main() {
  using namespace nextgov;
  using namespace nextgov::bench;

  print_header("Ablation", "reward metric: PPDW (paper) vs PPW vs FPS-only");

  struct Variant {
    const char* name;
    core::RewardMetric metric;
  };
  const Variant variants[] = {{"ppdw", core::RewardMetric::kPpdw},
                              {"ppw", core::RewardMetric::kPpw},
                              {"fps_only", core::RewardMetric::kFpsOnly}};

  // Stock baseline for context (a one-session runner plan). The session
  // setup - paper-length Lineage at the paper's operating point - comes
  // from the scenario library's per-app scenario.
  const sim::ScenarioSpec spec = sim::app_scenario(workload::AppId::kLineage);
  const std::uint64_t eval_seed = 2;
  sim::RunPlan sched_plan;
  sched_plan.add(spec.app_factory(), spec.name,
                 spec.experiment_config(sim::GovernorKind::kSchedutil, eval_seed));
  const sim::SessionResult sched = std::move(sim::execute(sched_plan).front());

  CsvWriter csv{out_dir() + "/abl_reward.csv",
                {"reward", "avg_power_w", "peak_temp_big_c", "avg_fps"}};
  std::printf("%-10s %14s %18s %10s\n", "reward", "avg_power_W", "peak_temp_big_C", "avg_FPS");
  std::printf("%-10s %14.3f %18.1f %10.1f\n", "schedutil", sched.avg_power_w,
              sched.peak_temp_big_c, sched.avg_fps);
  csv.row_strings({"schedutil", std::to_string(sched.avg_power_w),
                   std::to_string(sched.peak_temp_big_c), std::to_string(sched.avg_fps)});

  // Train the three reward variants concurrently through one TrainingPlan,
  // then run all deployed evaluation sessions through one runner plan.
  sim::TrainingPlan tplan;
  for (const auto& variant : variants) {
    core::NextConfig config;
    config.reward_metric = variant.metric;
    tplan.add(workload::AppId::kLineage, config, eval_training_options(17));
  }
  const std::vector<sim::TrainingResult> trained = sim::execute(tplan);

  sim::RunPlan plan;
  for (std::size_t i = 0; i < std::size(variants); ++i) {
    sim::ExperimentConfig cfg = spec.experiment_config(sim::GovernorKind::kNext, eval_seed);
    cfg.next_config.reward_metric = variants[i].metric;
    cfg.trained_table = &trained[i].table;
    plan.add(spec.app_factory(), spec.name, cfg);
  }
  const auto results = sim::execute(plan);

  for (std::size_t i = 0; i < std::size(variants); ++i) {
    const auto& variant = variants[i];
    const sim::SessionResult& r = results[i];
    std::printf("%-10s %14.3f %18.1f %10.1f%s\n", variant.name, r.avg_power_w,
                r.peak_temp_big_c, r.avg_fps,
                variant.metric == core::RewardMetric::kPpdw ? "   <- paper's metric" : "");
    csv.row_strings({variant.name, std::to_string(r.avg_power_w),
                     std::to_string(r.peak_temp_big_c), std::to_string(r.avg_fps)});
  }
  std::printf("\nexpected shape: PPDW matches or beats PPW on peak temperature at similar\n"
              "QoS (the thermal term matters); FPS-only leaves power on the table.\n");
  std::printf("series -> %s/abl_reward.csv\n\n", out_dir().c_str());
  return 0;
}
