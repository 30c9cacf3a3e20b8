// literals.hpp - unit and time literals for tests: 650_mhz, 2.5_w, 25_ms ...
#pragma once

#include <cstdint>

#include "common/sim_time.hpp"
#include "common/units.hpp"

namespace nextgov::literals {

constexpr KiloHertz operator""_khz(unsigned long long v) { return KiloHertz{static_cast<double>(v)}; }
constexpr KiloHertz operator""_mhz(unsigned long long v) {
  return KiloHertz::from_mhz(static_cast<double>(v));
}
constexpr KiloHertz operator""_ghz(long double v) { return KiloHertz{static_cast<double>(v) * 1e6}; }
constexpr Watts operator""_w(long double v) { return Watts{static_cast<double>(v)}; }
constexpr Watts operator""_mw(long double v) { return Watts{static_cast<double>(v) / 1e3}; }
constexpr SimTime operator""_ms(unsigned long long v) {
  return SimTime::from_ms(static_cast<std::int64_t>(v));
}
constexpr SimTime operator""_s(unsigned long long v) {
  return SimTime::from_seconds(static_cast<double>(v));
}

}  // namespace nextgov::literals
