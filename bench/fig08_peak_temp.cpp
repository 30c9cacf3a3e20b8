// fig08_peak_temp - reproduces the paper's Fig. 8: average peak temperature
// of the big CPU cluster and of the overall device, per application, under
// schedutil, Next and Int. QoS PM.
//
// Paper reference (Section V): vs schedutil, Next reduces peak temperature
// by up to 29.16% (big) and 21.21% (device); Int. QoS PM only reaches
// 22.80% (big) / 3.51% (device) on its applicable apps (games).
#include <cstdio>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "workload/apps.hpp"

int main() {
  using namespace nextgov;
  using namespace nextgov::bench;

  print_header("Fig. 8", "average peak temperature (big CPU + device) per app and governor");

  CsvWriter csv{out_dir() + "/fig08_peak_temp.csv",
                {"app", "sched_big_c", "next_big_c", "intqos_big_c", "sched_dev_c",
                 "next_dev_c", "intqos_dev_c", "next_big_red_pct", "next_dev_red_pct"}};

  std::printf("%-12s | %8s %8s %8s | %8s %8s %8s | %9s %9s\n", "app", "schd_big", "next_big",
              "iq_big", "schd_dev", "next_dev", "iq_dev", "big_red%", "dev_red%");

  const int kSeeds = 3;
  double max_big_red = 0.0;
  double max_dev_red = 0.0;
  double max_iq_big_red = 0.0;
  double max_iq_dev_red = 0.0;

  // Train-then-evaluate across every (app x governor x seed) cell: the
  // shared protocol in bench_util (also fig07's), scenario session lengths.
  const auto apps = workload::all_apps();
  const AppGovernorMatrix m = run_app_governor_matrix(apps, kSeeds, 600);

  for (std::size_t i = 0; i < apps.size(); ++i) {
    const workload::AppId app = apps[i];
    const std::size_t slices = m.slice_counts[i];
    const std::span<const sim::SessionResult> all = m.app_results(i);
    const auto peak_temps = [&](std::size_t slice) {
      return std::pair{mean_field(governor_slice(all, slice, kSeeds),
                                  &sim::SessionResult::peak_temp_big_c),
                       mean_field(governor_slice(all, slice, kSeeds),
                                  &sim::SessionResult::peak_temp_device_c)};
    };

    const auto [sched_big, sched_dev] = peak_temps(0);
    const auto [next_big, next_dev] = peak_temps(1);
    double iq_big = -1.0;
    double iq_dev = -1.0;
    if (slices > 2) {
      const auto [b, d] = peak_temps(2);
      iq_big = b;
      iq_dev = d;
      max_iq_big_red = std::max(max_iq_big_red, 100.0 * (1.0 - iq_big / sched_big));
      max_iq_dev_red = std::max(max_iq_dev_red, 100.0 * (1.0 - iq_dev / sched_dev));
    }

    const double big_red = 100.0 * (1.0 - next_big / sched_big);
    const double dev_red = 100.0 * (1.0 - next_dev / sched_dev);
    max_big_red = std::max(max_big_red, big_red);
    max_dev_red = std::max(max_dev_red, dev_red);

    std::printf("%-12s | %8.1f %8.1f %8s | %8.1f %8.1f %8s | %9.1f %9.1f\n",
                std::string{workload::to_string(app)}.c_str(), sched_big, next_big,
                iq_big > 0 ? std::to_string(iq_big).substr(0, 4).c_str() : "-", sched_dev,
                next_dev, iq_dev > 0 ? std::to_string(iq_dev).substr(0, 4).c_str() : "-",
                big_red, dev_red);
    csv.row_strings({std::string{workload::to_string(app)}, std::to_string(sched_big),
                     std::to_string(next_big), std::to_string(iq_big),
                     std::to_string(sched_dev), std::to_string(next_dev),
                     std::to_string(iq_dev), std::to_string(big_red),
                     std::to_string(dev_red)});
  }

  std::printf("\nmaximum reductions vs schedutil:\n");
  print_vs_paper("Next big-CPU peak reduction", 29.16, max_big_red, "%");
  print_vs_paper("Next device peak reduction", 21.21, max_dev_red, "%");
  print_vs_paper("IntQos big-CPU peak reduction", 22.80, max_iq_big_red, "%");
  print_vs_paper("IntQos device peak reduction", 3.51, max_iq_dev_red, "%");
  csv.close();
  std::printf("series -> %s/fig08_peak_temp.csv\n\n", out_dir().c_str());
  return 0;
}
