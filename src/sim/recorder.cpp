#include "sim/recorder.hpp"

#include "common/csv.hpp"
#include "common/error.hpp"

namespace nextgov::sim {

Recorder::Recorder(SimTime period) : period_{period} {
  require(period.us() > 0, "recorder period must be positive");
}

std::vector<double> Recorder::column(double Sample::* field) const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const auto& s : samples_) out.push_back(s.*field);
  return out;
}

void Recorder::save_csv(const std::string& path) const {
  CsvWriter csv{path,
                {"time_s", "fps", "target_fps", "f_big_mhz", "f_little_mhz", "f_gpu_mhz",
                 "cap_big_mhz", "cap_little_mhz", "cap_gpu_mhz", "power_w", "temp_big_c",
                 "temp_little_c", "temp_gpu_c", "temp_device_c", "temp_skin_c", "ppdw"}};
  for (const auto& s : samples_) {
    csv.row({s.time_s, s.fps, s.target_fps, s.f_big_mhz, s.f_little_mhz, s.f_gpu_mhz,
             s.cap_big_mhz, s.cap_little_mhz, s.cap_gpu_mhz, s.power_w, s.temp_big_c,
             s.temp_little_c, s.temp_gpu_c, s.temp_device_c, s.temp_skin_c, s.ppdw});
  }
  csv.close();
}

}  // namespace nextgov::sim
