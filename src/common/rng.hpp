// rng.hpp - deterministic pseudo-random streams.
//
// Every stochastic element of the reproduction (user interaction timing, app
// phase jitter, epsilon-greedy exploration, sensor noise) draws from an
// explicitly seeded stream so that experiments are bit-reproducible across
// runs and machines. std::mt19937 distributions are not guaranteed identical
// across standard libraries, so we implement SplitMix64 (seeding) and
// xoshiro256++ (generation) with our own distribution transforms.
#pragma once

#include <array>
#include <cstdint>

namespace nextgov {

/// SplitMix64: tiny, well-mixed generator used to expand a single seed into
/// the xoshiro state and to derive independent per-subsystem seeds.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) noexcept : state_{seed} {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ with distribution helpers. Passes BigCrush; more than enough
/// for workload/exploration randomness while being fully portable.
class Rng {
 public:
  /// Seeds the full 256-bit state from one 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed) noexcept;

  /// Next raw 64-bit output.
  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;
  /// Standard normal via Box-Muller (caches the spare value).
  double normal() noexcept;
  /// Normal with given mean / standard deviation.
  double normal(double mean, double stddev) noexcept;
  /// Log-normal parameterized by the mean and sigma of the underlying normal.
  double lognormal(double mu, double sigma) noexcept;

  /// Derives an independent child stream (seed mixed with `salt`), letting
  /// each subsystem own a stream without cross-coupling consumption order.
  [[nodiscard]] Rng fork(std::uint64_t salt) noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
  double spare_normal_{0.0};
  bool has_spare_{false};
};

}  // namespace nextgov
