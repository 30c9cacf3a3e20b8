// counting_new.hpp - allocation counters for the tests in tests/alloc/.
//
// counting_new.cpp replaces the global operator new/delete family with
// forwarders to malloc/free that count every allocation and track the
// bytes live on the heap (by malloc_usable_size, so a free needs no size).
// That replacement is why these tests build into a binary of their own:
// the counts, and the replacement, stay out of every other test.
#pragma once

#include <cstdint>

namespace nextgov::test {

/// Allocations through operator new since the process started.
[[nodiscard]] std::uint64_t allocations() noexcept;

/// Bytes currently allocated through operator new.
[[nodiscard]] std::uint64_t live_bytes() noexcept;

/// The most bytes live at once since the last reset_peak_bytes().
[[nodiscard]] std::uint64_t peak_bytes() noexcept;

/// Restarts peak_bytes() at the bytes live now.
void reset_peak_bytes() noexcept;

}  // namespace nextgov::test
