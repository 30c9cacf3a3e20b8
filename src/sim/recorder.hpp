// recorder.hpp - periodic time-series capture of a running session.
//
// The figure benches need the same series the paper plots: FPS and cluster
// frequencies every 3 s (Fig. 1), power and big-CPU temperature every second
// (Fig. 3). The recorder samples the engine at a fixed period and can dump
// RFC-4180 CSV for replotting.
#pragma once

#include <string>
#include <vector>

#include "common/sim_time.hpp"

namespace nextgov::sim {

struct Sample {
  double time_s{0.0};
  double fps{0.0};
  double target_fps{0.0};  ///< Next's frame-window target (0 when absent)
  double f_big_mhz{0.0};
  double f_little_mhz{0.0};
  double f_gpu_mhz{0.0};
  double cap_big_mhz{0.0};
  double cap_little_mhz{0.0};
  double cap_gpu_mhz{0.0};
  double power_w{0.0};
  double temp_big_c{0.0};
  double temp_little_c{0.0};
  double temp_gpu_c{0.0};
  double temp_device_c{0.0};
  double temp_skin_c{0.0};
  double ppdw{0.0};
};

class Recorder {
 public:
  explicit Recorder(SimTime period = SimTime::from_seconds(1.0));

  [[nodiscard]] SimTime period() const noexcept { return period_; }
  void add(const Sample& sample) { samples_.push_back(sample); }
  [[nodiscard]] const std::vector<Sample>& samples() const noexcept { return samples_; }

  /// Extracts one column as a vector (for stats helpers).
  [[nodiscard]] std::vector<double> column(double Sample::* field) const;

  /// Writes all samples as CSV. Throws IoError on failure.
  void save_csv(const std::string& path) const;

 private:
  SimTime period_;
  std::vector<Sample> samples_;
};

}  // namespace nextgov::sim
