// sensors.hpp - thermal/power sensor front-end.
//
// The governor stack must observe the system the way the paper's
// application-layer agent does: through quantized, slightly delayed sensor
// readings, not the simulator's exact floating-point state. Section III-A:
// the Note 9 exposes 5 thermal sensors of which one sits on the big cluster
// and one *virtual* sensor reports "overall device temperature" via a
// proprietary formula. We document our replacement formula here (DESIGN.md):
//
//   T_device = 0.40*T_battery + 0.35*T_skin + 0.25*max(T_big,T_little,T_gpu)
//
// Readings are quantized to 0.1 C (typical tsens granularity) and power to
// 1 mW (fuel-gauge granularity).
#pragma once

#include <cmath>
#include <cstdint>

#include "common/units.hpp"

namespace nextgov::soc {

/// std::round, bit for bit (half-way cases away from zero, -0.0 kept),
/// without the libm call: the engine quantizes seven readings a step. For
/// |x| < 2^52 the truncation through int64_t is exact, so is the remainder
/// x - t, and comparing it with +-0.5 rounds exactly; copysign restores the
/// sign of a result that rounds to zero. Larger magnitudes (already
/// integers), infinities and NaN go to std::round.
[[nodiscard]] inline double round_half_away(double x) noexcept {
  if (!(std::fabs(x) < 0x1p52)) return std::round(x);
  const double t = static_cast<double>(static_cast<std::int64_t>(x));
  const double rem = x - t;
  const double r = rem >= 0.5 ? t + 1.0 : rem <= -0.5 ? t - 1.0 : t;
  return std::copysign(r, x);
}

/// Quantizes a temperature to the sensor granularity (0.1 degrees C).
[[nodiscard]] inline Celsius quantize_temperature(Celsius t) noexcept {
  return Celsius{round_half_away(t.value() * 10.0) / 10.0};
}

/// Quantizes a power reading to 1 mW.
[[nodiscard]] inline Watts quantize_power(Watts p) noexcept {
  return Watts{round_half_away(p.value() * 1000.0) / 1000.0};
}

/// The device-level virtual sensor replacement formula.
[[nodiscard]] Celsius virtual_device_temperature(Celsius battery, Celsius skin, Celsius big,
                                                 Celsius little, Celsius gpu) noexcept;

/// Snapshot of every sensor the agent can read.
struct SensorReadings {
  Celsius big;     ///< big-cluster on-die sensor
  Celsius little;  ///< LITTLE-cluster on-die sensor
  Celsius gpu;     ///< GPU on-die sensor
  Celsius battery; ///< battery pack sensor
  Celsius skin;    ///< chassis/skin sensor
  Celsius device;  ///< virtual "overall device" sensor
  Watts power;     ///< instantaneous device power (fuel gauge)
};

}  // namespace nextgov::soc
