// parse.hpp - strict decimal parsing for CLI arguments.
//
// Every example daemon used to parse counts with strtoul, which has two
// traps: it *accepts* a leading '-' and wraps the negated value ("-5"
// becomes 18446744073709551611, so a typo'd device count silently asks for
// eighteen quintillion devices), and it reports out-of-range input via
// errno, which the call sites never reset or checked. These parsers accept
// exactly the strings a human means by "a count": one or more decimal
// digits, nothing else - no sign, no whitespace, no base prefixes, no
// trailing garbage - and reject anything whose value does not fit the
// output type. No errno involved, so there is nothing to forget to check.
// parse_seconds applies the same rule to durations: plain decimals only,
// bounded by the caller.
//
// Pinned by tests/common/parse_test.cpp (the "-5" rejection is the
// regression test for the strtoul bug).
#pragma once

#include <cstdint>

namespace nextgov {

/// Parses a non-negative decimal integer. Returns false (leaving `out`
/// untouched) on null/empty input, any non-digit character (including a
/// leading '-' or '+'), or a value exceeding 2^64 - 1.
[[nodiscard]] bool parse_u64(const char* arg, std::uint64_t& out) noexcept;

/// Same, for values that must fit std::size_t (identical to parse_u64 on
/// 64-bit hosts; on narrower hosts, values above SIZE_MAX are rejected).
[[nodiscard]] bool parse_count(const char* arg, std::size_t& out) noexcept;

/// Parses a non-negative decimal number of seconds: digits with at most one
/// '.', at least one digit, nothing else (no sign, whitespace, exponent,
/// "inf" or "nan"). Returns false (leaving `out` untouched) on any other
/// form or a value above `max_s`.
[[nodiscard]] bool parse_seconds(const char* arg, double max_s, double& out) noexcept;

}  // namespace nextgov
