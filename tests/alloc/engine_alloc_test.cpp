// Allocation pin for the phone's loop: a deployed Next session's engine
// step allocates nothing once the session is under way. This binary
// replaces the global operator new/delete family with counting forwarders
// to malloc/free, which is why it is a test binary of its own: the count
// (and the replacement) stays out of every other test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "workload/apps.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, ((size == 0 ? 1 : size) + a - 1) / a * a);
}

}  // namespace

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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace nextgov::sim {
namespace {

TEST(EngineAllocations, DeployedNextStepAllocatesNothingInSteadyState) {
  for (const workload::AppId app :
       {workload::AppId::kFacebook, workload::AppId::kYoutube, workload::AppId::kPubg}) {
    SCOPED_TRACE(static_cast<int>(app));
    TrainingOptions training;
    training.max_duration = SimTime::from_seconds(60.0);
    const TrainingResult trained = train_next(app, core::NextConfig{}, training);
    ASSERT_GT(trained.table.state_count(), 0u);

    ExperimentConfig cfg;
    cfg.governor = GovernorKind::kNext;
    cfg.seed = 7;
    cfg.trained_table = &trained.table;
    // The recorder's sample vector grows by design, once per doubling of a
    // session's samples; a period past the window keeps it out of the count.
    cfg.record_period = SimTime::from_seconds(3600.0);
    const auto engine = make_engine(
        [app](std::uint64_t seed) { return workload::make_app(app, seed); }, cfg);
    // Warm-up: the first seconds fill the FPS counters' buffers and the
    // agent's frame window.
    for (int i = 0; i < 5'000; ++i) engine->step();
    const std::uint64_t before = g_allocations.load();
    for (int i = 0; i < 30'000; ++i) engine->step();
    EXPECT_EQ(g_allocations.load() - before, 0u) << "allocations in 30,000 steady-state steps";
  }
}

}  // namespace
}  // namespace nextgov::sim
