#include "core/ppdw.hpp"

#include <algorithm>

namespace nextgov::core {

double PpdwBounds::worst() const noexcept {
  return fps_least / ((temp_max.value() - ambient.value()) * power_max.value());
}

double PpdwBounds::best() const noexcept {
  return fps_max / ((temp_least.value() - ambient.value()) * power_least.value());
}

double ppdw(double fps, Watts power, Celsius temp, Celsius ambient) noexcept {
  const double dt = std::max(temp.value() - ambient.value(), 0.5);
  const double p = std::max(power.value(), 1e-3);
  return std::max(fps, 0.0) / (dt * p);
}

double ppdw_score(double ppdw_value, double ref) noexcept {
  const double x = std::max(ppdw_value, 0.0);
  const double r = std::max(ref, 1e-9);
  return x / (x + r);
}

double clamp_to_bounds(double ppdw_value, const PpdwBounds& bounds) noexcept {
  // Not std::clamp: at an ambient at or above temp_least, best() < worst(),
  // which breaks clamp's precondition. This is what GCC's clamp computes, so
  // such bounds clamp every value to best(). The zero reward that gives at
  // hot ambients is a fidelity question (ROADMAP item 8).
  return std::min(std::max(ppdw_value, bounds.worst()), bounds.best());
}

}  // namespace nextgov::core
