// fig07_power - reproduces the paper's Fig. 7: average power consumption
// per application under schedutil, Next (fully trained) and Int. QoS PM
// (games only - "the methodology could not be extended to all
// applications", Section V).
//
// Paper reference savings vs schedutil:
//   Next:      facebook 37.05%, lineage 50.68%, pubg 40.95%,
//              spotify 32.98%, web browser 32.11%, youtube 40.6%
//   Int. QoS:  lineage 16.31%, pubg 23.84%
#include <cstdio>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "workload/apps.hpp"

int main() {
  using namespace nextgov;
  using namespace nextgov::bench;

  print_header("Fig. 7", "average power per app: schedutil vs Next vs Int. QoS PM");

  struct PaperRef {
    workload::AppId app;
    double next_saving_pct;
    double intqos_saving_pct;  // <0 = not applicable
  };
  const PaperRef refs[] = {
      {workload::AppId::kFacebook, 37.05, -1.0}, {workload::AppId::kLineage, 50.68, 16.31},
      {workload::AppId::kPubg, 40.95, 23.84},    {workload::AppId::kSpotify, 32.98, -1.0},
      {workload::AppId::kWebBrowser, 32.11, -1.0}, {workload::AppId::kYoutube, 40.60, -1.0}};

  CsvWriter csv{out_dir() + "/fig07_power.csv",
                {"app", "sched_w", "next_w", "intqos_w", "next_saving_pct",
                 "paper_next_saving_pct", "intqos_saving_pct", "paper_intqos_saving_pct"}};

  std::printf("%-12s %9s %9s %9s | %9s %9s | %9s %9s\n", "app", "sched_W", "next_W",
              "intqos_W", "nxt_sav%", "paper%", "iq_sav%", "paper%");

  const int kSeeds = 3;

  // Train-then-evaluate across every (app x governor x seed) cell: the
  // shared protocol in bench_util (also fig08's), scenario session lengths.
  std::vector<workload::AppId> apps;
  for (const auto& ref : refs) apps.push_back(ref.app);
  const AppGovernorMatrix m = run_app_governor_matrix(apps, kSeeds, 500);

  for (std::size_t i = 0; i < std::size(refs); ++i) {
    const auto& ref = refs[i];
    const std::size_t slices = m.slice_counts[i];
    const std::span<const sim::SessionResult> all = m.app_results(i);
    const double sched_w =
        mean_field(governor_slice(all, 0, kSeeds), &sim::SessionResult::avg_power_w);
    const double next_w =
        mean_field(governor_slice(all, 1, kSeeds), &sim::SessionResult::avg_power_w);
    const double intqos_w =
        slices > 2 ? mean_field(governor_slice(all, 2, kSeeds), &sim::SessionResult::avg_power_w)
                   : -1.0;

    const double next_saving = 100.0 * (1.0 - next_w / sched_w);
    const double intqos_saving = intqos_w > 0.0 ? 100.0 * (1.0 - intqos_w / sched_w) : -1.0;
    std::printf("%-12s %9.3f %9.3f %9s | %9.1f %9.2f | %9s %9s\n",
                std::string{workload::to_string(ref.app)}.c_str(), sched_w, next_w,
                intqos_w > 0 ? std::to_string(intqos_w).substr(0, 5).c_str() : "-",
                next_saving, ref.next_saving_pct,
                intqos_saving >= 0 ? std::to_string(intqos_saving).substr(0, 5).c_str() : "-",
                ref.intqos_saving_pct >= 0 ? std::to_string(ref.intqos_saving_pct).substr(0, 5).c_str()
                                           : "-");
    csv.row_strings({std::string{workload::to_string(ref.app)}, std::to_string(sched_w),
                     std::to_string(next_w), std::to_string(intqos_w),
                     std::to_string(next_saving), std::to_string(ref.next_saving_pct),
                     std::to_string(intqos_saving), std::to_string(ref.intqos_saving_pct)});
  }

  std::printf("\nexpected shape: Next saves on every app, most on the games; Int. QoS PM\n"
              "saves meaningfully less than Next on the games (paper: 41%%/22%% gap).\n");
  csv.close();
  std::printf("series -> %s/fig07_power.csv\n\n", out_dir().c_str());
  return 0;
}
