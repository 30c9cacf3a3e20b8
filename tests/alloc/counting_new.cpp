// The counting operator new/delete family of counting_new.hpp.
#include "counting_new.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_live{0};
std::atomic<std::uint64_t> g_peak{0};

void* counted(void* p) noexcept {
  if (p == nullptr) return nullptr;
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t live =
      g_live.fetch_add(malloc_usable_size(p), std::memory_order_relaxed) + malloc_usable_size(p);
  std::uint64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void* counted_alloc(std::size_t size) noexcept { return counted(std::malloc(size == 0 ? 1 : size)); }

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) noexcept {
  const auto a = static_cast<std::size_t>(align);
  return counted(std::aligned_alloc(a, ((size == 0 ? 1 : size) + a - 1) / a * a));
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace nextgov::test {

std::uint64_t allocations() noexcept { return g_allocations.load(); }
std::uint64_t live_bytes() noexcept { return g_live.load(); }
std::uint64_t peak_bytes() noexcept { return g_peak.load(); }
void reset_peak_bytes() noexcept { g_peak.store(g_live.load()); }

}  // namespace nextgov::test

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted_alloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
