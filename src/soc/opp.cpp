#include "soc/opp.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"

namespace nextgov::soc {

OppTable::OppTable(std::vector<OppPoint> points) : points_(std::move(points)) {
  require(!points_.empty(), "OPP table must not be empty");
  for (std::size_t i = 0; i < points_.size(); ++i) {
    require(points_[i].frequency.value() > 0.0, "OPP frequency must be positive");
    require(points_[i].voltage.value() > 0.0, "OPP voltage must be positive");
    if (i > 0) {
      require(points_[i].frequency > points_[i - 1].frequency,
              "OPP frequencies must be strictly increasing");
      require(points_[i].voltage >= points_[i - 1].voltage,
              "OPP voltages must be non-decreasing with frequency");
    }
  }
}

std::size_t OppTable::ceil_index(KiloHertz f) const noexcept {
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (points_[i].frequency >= f) return i;
  }
  return points_.size() - 1;
}

OppTable OppTable::from_mhz_descending(std::span<const double> mhz_desc, Volts v_min,
                                       Volts v_max) {
  require(!mhz_desc.empty(), "OPP list must not be empty");
  require(v_min.value() > 0.0 && v_max >= v_min, "voltage ramp must satisfy 0 < v_min <= v_max");
  std::vector<OppPoint> pts;
  pts.reserve(mhz_desc.size());
  const double f_lo = mhz_desc.back();
  const double f_hi = mhz_desc.front();
  for (auto it = mhz_desc.rbegin(); it != mhz_desc.rend(); ++it) {
    const double f = *it;
    const double t = (f_hi > f_lo) ? (f - f_lo) / (f_hi - f_lo) : 1.0;
    const Volts v{v_min.value() + t * (v_max.value() - v_min.value())};
    pts.push_back(OppPoint{KiloHertz::from_mhz(f), v});
  }
  return OppTable{std::move(pts)};
}

OppTable exynos9810_big_opps() {
  // Section III-A: Mongoose 3 cluster, 18 levels, 650-2704 MHz.
  static constexpr std::array<double, 18> kMhz = {2704, 2652, 2496, 2314, 2106, 2002,
                                                  1924, 1794, 1690, 1586, 1469, 1261,
                                                  1170, 1066, 962,  858,  741,  650};
  return OppTable::from_mhz_descending(kMhz, Volts{0.70}, Volts{1.08});
}

OppTable exynos9810_little_opps() {
  // Section III-A: Cortex-A55 cluster, 10 levels, 455-1794 MHz.
  static constexpr std::array<double, 10> kMhz = {1794, 1690, 1456, 1248, 1053,
                                                  949,  832,  715,  598,  455};
  return OppTable::from_mhz_descending(kMhz, Volts{0.60}, Volts{0.95});
}

OppTable exynos9810_gpu_opps() {
  // Section III-A: Mali-G72 MP18, 6 levels, 260-572 MHz.
  static constexpr std::array<double, 6> kMhz = {572, 546, 455, 338, 299, 260};
  return OppTable::from_mhz_descending(kMhz, Volts{0.65}, Volts{0.90});
}

}  // namespace nextgov::soc
