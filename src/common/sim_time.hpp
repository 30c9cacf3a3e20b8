// sim_time.hpp - simulated time as an integer microsecond tick count.
//
// All periodic activities in the reproduced system are expressed in
// microseconds: the engine step (1 ms), VSync (16 667 us at 60 Hz), the frame
// window sampler (25 ms), the Next agent (100 ms). An integer tick avoids the
// floating-point drift that would desynchronize those periods over a
// five-minute session.
#pragma once

#include <compare>
#include <cstdint>

namespace nextgov {

/// A point in (or duration of) simulated time, in whole microseconds.
class SimTime {
 public:
  constexpr SimTime() noexcept = default;
  constexpr explicit SimTime(std::int64_t microseconds) noexcept : us_{microseconds} {}

  [[nodiscard]] static constexpr SimTime from_ms(std::int64_t ms) noexcept {
    return SimTime{ms * 1000};
  }
  [[nodiscard]] static constexpr SimTime from_seconds(double s) noexcept {
    return SimTime{static_cast<std::int64_t>(s * 1e6 + 0.5)};
  }
  [[nodiscard]] static constexpr SimTime zero() noexcept { return SimTime{0}; }

  [[nodiscard]] constexpr std::int64_t us() const noexcept { return us_; }
  [[nodiscard]] constexpr double seconds() const noexcept {
    return static_cast<double>(us_) / 1e6;
  }

  friend constexpr auto operator<=>(SimTime, SimTime) noexcept = default;
  friend constexpr SimTime operator+(SimTime a, SimTime b) noexcept {
    return SimTime{a.us_ + b.us_};
  }
  friend constexpr SimTime operator-(SimTime a, SimTime b) noexcept {
    return SimTime{a.us_ - b.us_};
  }
  /// Integer division: how many whole periods of `b` fit in `a`.
  friend constexpr std::int64_t operator/(SimTime a, SimTime b) noexcept { return a.us_ / b.us_; }
  constexpr SimTime& operator+=(SimTime o) noexcept {
    us_ += o.us_;
    return *this;
  }

 private:
  std::int64_t us_{0};
};

}  // namespace nextgov
