#include "common/rng.hpp"

#include <cmath>

namespace nextgov {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  SplitMix64 sm{seed};
  for (auto& word : s_) word = sm.next();
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full 64-bit range
  // Rejection-free multiply-shift (Lemire); bias < 2^-64, irrelevant here.
  const unsigned __int128 m = static_cast<unsigned __int128>(next_u64()) * span;
  return lo + static_cast<std::int64_t>(static_cast<std::uint64_t>(m >> 64));
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

double Rng::normal() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  spare_normal_ = r * std::sin(theta);
  has_spare_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept { return mean + stddev * normal(); }

double Rng::lognormal(double mu, double sigma) noexcept { return std::exp(normal(mu, sigma)); }

Rng Rng::fork(std::uint64_t salt) noexcept {
  SplitMix64 sm{next_u64() ^ (salt * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL)};
  return Rng{sm.next()};
}

}  // namespace nextgov
