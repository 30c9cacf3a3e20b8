// fig03_session_power_temp - reproduces the paper's Fig. 3: device power
// and big-CPU temperature over the home -> Facebook -> Spotify session,
// schedutil vs fully-trained Next.
//
// Paper reference values (Section I-A):
//   avg power  schedutil 3.5154 W   Next 2.0433 W   (-41.88%)
//   avg temp   schedutil 52.33 C    Next 41.33 C    (-21.02%)
#include <cstdio>

#include "bench_util.hpp"
#include "common/csv.hpp"

int main() {
  using namespace nextgov;
  using namespace nextgov::bench;

  print_header("Fig. 3", "power & big-CPU temperature: schedutil vs Next (same session)");

  // The canonical session comes from the scenario library (same workload,
  // ambient and panel as fig01).
  const sim::ScenarioSpec spec = sim::scenario("fig1_session");
  const sim::AppFactory factory = spec.app_factory();

  std::printf("training Next on the session workload...\n");
  const sim::TrainingResult trained = train_for_eval(factory, 1001);
  std::printf("  trained: %s after %.0f sim-s, %zu states, mean reward %.3f\n",
              trained.converged ? "converged" : "budget-limited", trained.sim_seconds,
              trained.states_visited, trained.final_mean_reward);

  // Both evaluation sessions go through the parallel runner.
  sim::RunPlan plan;
  plan.add(factory, spec.name, spec.experiment_config(sim::GovernorKind::kSchedutil));
  sim::ExperimentConfig next_cfg = spec.experiment_config(sim::GovernorKind::kNext);
  next_cfg.trained_table = &trained.table;
  plan.add(factory, spec.name, next_cfg);
  const auto results = sim::execute(plan);
  const sim::SessionResult& sched = results[0];
  const sim::SessionResult& next = results[1];

  const double power_saving = 100.0 * (1.0 - next.avg_power_w / sched.avg_power_w);
  const double temp_red = 100.0 * (1.0 - next.avg_temp_big_c / sched.avg_temp_big_c);

  std::printf("\nsession averages (280 s):\n");
  print_vs_paper("schedutil avg power", 3.5154, sched.avg_power_w, "W");
  print_vs_paper("Next avg power", 2.0433, next.avg_power_w, "W");
  print_vs_paper("power saving", 41.88, power_saving, "%");
  print_vs_paper("schedutil avg big temp", 52.33, sched.avg_temp_big_c, "C");
  print_vs_paper("Next avg big temp", 41.33, next.avg_temp_big_c, "C");
  print_vs_paper("temp reduction", 21.02, temp_red, "%");
  std::printf("  QoS: schedutil avg FPS %.1f vs Next %.1f\n", sched.avg_fps, next.avg_fps);

  CsvWriter csv{out_dir() + "/fig03_session_power_temp.csv",
                {"time_s", "power_sched_w", "power_next_w", "temp_sched_c", "temp_next_c"}};
  const std::size_t n = std::min(sched.series.size(), next.series.size());
  for (std::size_t i = 0; i < n; ++i) {
    csv.row({sched.series[i].time_s, sched.series[i].power_w, next.series[i].power_w,
             sched.series[i].temp_big_c, next.series[i].temp_big_c});
  }
  std::printf("series -> %s/fig03_session_power_temp.csv\n\n", out_dir().c_str());
  return 0;
}
