#include "common/parse.hpp"

#include <cstddef>
#include <cstdlib>
#include <limits>

namespace nextgov {

bool parse_u64(const char* arg, std::uint64_t& out) noexcept {
  if (arg == nullptr || *arg == '\0') return false;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (const char* p = arg; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(*p - '0');
    if (value > (kMax - digit) / 10) return false;  // would overflow
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

bool parse_count(const char* arg, std::size_t& out) noexcept {
  std::uint64_t value = 0;
  if (!parse_u64(arg, value)) return false;
  if constexpr (sizeof(std::size_t) < sizeof(std::uint64_t)) {
    if (value > static_cast<std::uint64_t>(std::numeric_limits<std::size_t>::max())) return false;
  }
  out = static_cast<std::size_t>(value);
  return true;
}

bool parse_seconds(const char* arg, double max_s, double& out) noexcept {
  if (arg == nullptr) return false;
  bool digit = false;
  bool point = false;
  for (const char* p = arg; *p != '\0'; ++p) {
    if (*p >= '0' && *p <= '9') {
      digit = true;
    } else if (*p == '.' && !point) {
      point = true;
    } else {
      return false;
    }
  }
  if (!digit) return false;
  // The grammar above is a subset of strtod's, so strtod consumes it all
  // and only rounds; a long digit string can still exceed max_s.
  const double value = std::strtod(arg, nullptr);
  if (!(value <= max_s)) return false;
  out = value;
  return true;
}

}  // namespace nextgov
