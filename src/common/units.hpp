// units.hpp - strong value types for physical quantities.
//
// The library moves frequencies (kHz, like Linux cpufreq), power (W),
// temperature (degrees C) and voltage (V) between many modules; mixing them up
// silently is the classic simulator bug. Following C++ Core Guidelines I.4
// ("make interfaces precisely and strongly typed") every quantity is a
// distinct arithmetic wrapper with only the operations that make physical
// sense.
//
// The wrappers are constexpr, trivially copyable and have no invariant beyond
// "is a finite double"; they are deliberately cheap enough for the 1 ms
// simulation hot loop.
#pragma once

#include <compare>
#include <cstdint>

namespace nextgov {

/// CRTP base providing ordering, +,-, scalar *,/ for a tagged quantity.
/// Derived types expose value() in their canonical unit, and add what only
/// they need (Watts' running sums).
template <typename Derived>
class Quantity {
 public:
  constexpr Quantity() noexcept = default;
  constexpr explicit Quantity(double v) noexcept : value_{v} {}

  [[nodiscard]] constexpr double value() const noexcept { return value_; }

  friend constexpr auto operator<=>(const Derived& a, const Derived& b) noexcept {
    return a.value() <=> b.value();
  }
  friend constexpr bool operator==(const Derived& a, const Derived& b) noexcept {
    return a.value() == b.value();
  }
  friend constexpr Derived operator+(const Derived& a, const Derived& b) noexcept {
    return Derived{a.value() + b.value()};
  }
  friend constexpr Derived operator-(const Derived& a, const Derived& b) noexcept {
    return Derived{a.value() - b.value()};
  }
  friend constexpr Derived operator*(const Derived& a, double s) noexcept {
    return Derived{a.value() * s};
  }
  friend constexpr Derived operator*(double s, const Derived& a) noexcept {
    return Derived{a.value() * s};
  }
  friend constexpr Derived operator/(const Derived& a, double s) noexcept {
    return Derived{a.value() / s};
  }
  /// Ratio of two like quantities is a dimensionless double.
  friend constexpr double operator/(const Derived& a, const Derived& b) noexcept {
    return a.value() / b.value();
  }

 private:
  double value_{0.0};
};

/// Frequency in kilohertz - the canonical unit of Linux cpufreq OPP tables.
class KiloHertz : public Quantity<KiloHertz> {
 public:
  using Quantity::Quantity;
  [[nodiscard]] constexpr double hz() const noexcept { return value() * 1e3; }
  [[nodiscard]] constexpr double mhz() const noexcept { return value() / 1e3; }
  [[nodiscard]] constexpr double ghz() const noexcept { return value() / 1e6; }
  [[nodiscard]] static constexpr KiloHertz from_mhz(double mhz) noexcept {
    return KiloHertz{mhz * 1e3};
  }
};

/// Electrical power in watts (device- or cluster-level).
class Watts : public Quantity<Watts> {
 public:
  using Quantity::Quantity;
  /// Running power sums (a session's energy accumulators).
  constexpr Watts& operator+=(Watts o) noexcept {
    *this = *this + o;
    return *this;
  }
};

/// Temperature in degrees Celsius (the paper reports degrees C throughout).
class Celsius : public Quantity<Celsius> {
 public:
  using Quantity::Quantity;
};

/// Supply voltage in volts.
class Volts : public Quantity<Volts> {
 public:
  using Quantity::Quantity;
};

/// Frames per second. Kept as double internally; the agent quantizes
/// explicitly via rl::Discretizer, never implicitly.
class Fps : public Quantity<Fps> {
 public:
  using Quantity::Quantity;
  [[nodiscard]] constexpr int rounded() const noexcept {
    return static_cast<int>(value() + (value() >= 0 ? 0.5 : -0.5));
  }
};

}  // namespace nextgov
