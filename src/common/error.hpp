// error.hpp - exception types and precondition helpers.
//
// Configuration and construction errors throw (Core Guidelines E.2); the
// simulation hot path is exception-free and uses NEXTGOV_ASSERT for internal
// invariants, which is compiled to a cheap check that terminates with a
// message (a corrupted simulation state is not recoverable).
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace nextgov {

/// Invalid user-supplied configuration (bad OPP table, negative window, ...).
class ConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// I/O failure while persisting or loading artifacts (Q-tables, traces, CSV).
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[noreturn]] void require_fail(const char* what, std::source_location loc);

/// Throws ConfigError with a formatted location prefix when `cond` is false.
/// Takes `const char*` so the success path costs one branch: the previous
/// `const std::string&` signature materialized (and heap-allocated) the
/// message at every call site, which dominated the 1 ms engine step once the
/// thermal/power accessors validated ids a dozen times per tick.
inline void require(bool cond, const char* what,
                    std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] require_fail(what, loc);
}

[[noreturn]] void assert_fail(const char* expr, const char* file, int line);

}  // namespace nextgov

/// Internal invariant check; enabled in all build types because the
/// simulation is cheap relative to silent corruption.
#define NEXTGOV_ASSERT(expr) \
  ((expr) ? static_cast<void>(0) : ::nextgov::assert_fail(#expr, __FILE__, __LINE__))
