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

#include "common/units.hpp"

namespace nextgov::soc {

/// std::round, bit for bit (half-way cases away from zero, -0.0 kept),
/// without the libm call. For |x| < 2^51, adding and subtracting 1.5 * 2^52
/// rounds to the nearest integer, ties to even; x - r is then exact, so a
/// tie shows as |x - r| == 0.5 and moves away from zero (exactly: x is a
/// half-integer). copysign restores the sign of a result that rounds to
/// zero. Larger magnitudes (already integers or halves), infinities and NaN
/// go to std::round.
[[nodiscard]] inline double round_half_away(double x) noexcept {
  if (!(std::fabs(x) < 0x1p51)) return std::round(x);
  double r = (x + 0x1.8p52) - 0x1.8p52;
  if (std::fabs(x - r) == 0.5) [[unlikely]] r = x + std::copysign(0.5, x);
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

/// One 0.1 C temperature sensor that remembers its last reading. read()
/// returns quantize_temperature(Celsius{raw}) bit for bit: while 10 * raw
/// stays strictly within 0.5 of the last rounded value k != 0, it rounds to
/// k again, and that distance is exact (Sterbenz: |k| >= 1); k == 0 is
/// never reused because the sign of a zero reading follows the raw value.
/// A reading changes only every few hundred 1 ms steps, so nearly every
/// read skips the rounding.
class TemperatureSensor {
 public:
  /// Takes a reading; true when it was re-quantized (it may still be equal).
  bool read(double raw) noexcept {
    const double x = raw * 10.0;
    if (k_ != 0.0 && std::fabs(x - k_) < 0.5) return false;
    k_ = round_half_away(x);
    reading_ = quantize_temperature(Celsius{raw});
    return true;
  }
  [[nodiscard]] Celsius reading() const noexcept { return reading_; }

 private:
  double k_{0.0};  ///< round_half_away(10 * raw) of the last re-quantized read
  Celsius reading_{0.0};
};

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
