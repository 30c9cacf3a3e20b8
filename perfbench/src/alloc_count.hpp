// alloc_count.hpp - heap allocations made by this process so far, and the
// peak of live heap bytes.
//
// alloc_count.cpp replaces the global operator new/delete family in the
// benchmark binary with a counting wrapper over malloc; the simulator
// library is untouched. Counts are exact, so they are reported as counts.
// The peak counts malloc_usable_size of every block allocated through
// operator new: the program's own demand, which unlike the resident set
// does not depend on how the allocator's per-thread arenas fragment.
#pragma once

#include <cstdint>

namespace perfbench {

[[nodiscard]] std::uint64_t allocations() noexcept;
/// Highest number of bytes live at once in blocks from operator new.
[[nodiscard]] std::uint64_t peak_heap_bytes() noexcept;

}  // namespace perfbench
