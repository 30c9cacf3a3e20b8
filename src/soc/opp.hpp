// opp.hpp - Operating Performance Point tables.
//
// An OPP table is the ordered list of (frequency, voltage) pairs a cluster's
// DVFS driver exposes. Section III-A of the paper gives the exact frequency
// lists of the Exynos 9810: 18 levels for the Mongoose-3 big cluster
// (650-2704 MHz), 10 for the Cortex-A55 LITTLE cluster (455-1794 MHz) and 6
// for the Mali-G72 MP18 GPU (260-572 MHz). Voltages are not published; we
// attach a monotone affine voltage ramp per cluster (documented in
// DESIGN.md), which preserves the V^2*f power shape DVFS exploits.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/units.hpp"

namespace nextgov::soc {

/// One DVFS operating point.
struct OppPoint {
  KiloHertz frequency;
  Volts voltage;
};

/// Immutable, ascending-by-frequency table of operating points.
/// Invariants (checked at construction): non-empty, strictly increasing
/// frequency, positive and non-decreasing voltage.
class OppTable {
 public:
  explicit OppTable(std::vector<OppPoint> points);

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] const OppPoint& operator[](std::size_t i) const noexcept { return points_[i]; }
  [[nodiscard]] const OppPoint& highest() const noexcept { return points_.back(); }
  [[nodiscard]] std::span<const OppPoint> points() const noexcept { return points_; }

  /// Index of the lowest OPP whose frequency is >= `f`; size()-1 when `f`
  /// exceeds the highest frequency (the governor saturates at fmax).
  [[nodiscard]] std::size_t ceil_index(KiloHertz f) const noexcept;

  /// Builds a table from MHz values in *descending* order (the order data
  /// sheets and the paper list them in) and an affine voltage ramp from
  /// `v_min` at the lowest frequency to `v_max` at the highest.
  [[nodiscard]] static OppTable from_mhz_descending(std::span<const double> mhz_desc, Volts v_min,
                                                    Volts v_max);

 private:
  std::vector<OppPoint> points_;
};

/// The three cluster OPP tables of the Exynos 9810 as published in the paper.
[[nodiscard]] OppTable exynos9810_big_opps();
[[nodiscard]] OppTable exynos9810_little_opps();
[[nodiscard]] OppTable exynos9810_gpu_opps();

}  // namespace nextgov::soc
