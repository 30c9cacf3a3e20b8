// Golden net over Next's online training (ctest label: golden). A small
// TrainingPlan - two cells with one budget, a warm-started cell on that
// same budget and an early-stopping cell - runs serially ({workers 1}) and
// on two workers ({workers 2}). Both runs must reproduce the checked-in
// fingerprint bit for bit: the CRC-32 and length of each learned table's
// canonical bytes (QTable::serialize) plus the exact bits of decisions,
// converged, sim_seconds and final_mean_reward. The scenario goldens run
// schedutil and the execution-path tests only check that paths agree
// with each other, so this is the net that pins what training learns.
// "LockStepOnTwoWorkers" predates per-cell stepping as execute()'s only
// path (the cells once also trained in lock-step batches); the name is
// kept so test history stays traceable.
//
// Regenerating after a deliberate change to the training trajectory: run
//
//   ./build/tests/nextgov_golden_tests --gtest_filter='TrainingGolden.*'
//
// and paste the replacement table it prints on mismatch.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "oracles/crc32.hpp"
#include "sim/runner.hpp"

namespace nextgov::sim {
namespace {

struct TrainingFingerprint {
  std::string_view cell;
  std::uint32_t table_crc;
  std::uint64_t table_bytes;
  std::uint64_t decisions;
  bool converged;
  std::uint64_t sim_seconds_bits;
  std::uint64_t final_mean_reward_bits;
};

// --- checked-in fingerprints ------------------------------------------------
// REGENERATE-BY: pasting the table printed on mismatch (see file header).
constexpr TrainingFingerprint kGolden[] = {
    {"facebook_lockstep", 0x2585c867u, 14088u, 1200u, false, 0x405e000000000000ull, 0x3fd68daaed5396e4ull},
    {"lineage_lockstep", 0xbde99952u, 36544u, 1200u, false, 0x405e000000000000ull, 0x3fc4f833db914d39ull},
    {"facebook_warm", 0xf51235ecu, 25344u, 1200u, false, 0x405e000000000000ull, 0x3fd846e2b6178a19ull},
    {"youtube_stop", 0x92a5a5b8u, 24168u, 4070u, true, 0x4079700000000000ull, 0x3fe24c04a05dd915ull},
};

constexpr std::string_view kCellNames[] = {"facebook_lockstep", "lineage_lockstep",
                                           "facebook_warm", "youtube_stop"};

TrainingFingerprint fingerprint(std::string_view cell, const TrainingResult& r) {
  ByteWriter table;
  r.table.serialize(table);
  return TrainingFingerprint{cell,
                             test::crc32(table.data()),
                             table.size(),
                             r.decisions,
                             r.converged,
                             std::bit_cast<std::uint64_t>(r.sim_seconds),
                             std::bit_cast<std::uint64_t>(r.final_mean_reward)};
}

TrainingOptions budget(std::uint64_t seed, double max_s, double episode_s) {
  TrainingOptions o;
  o.max_duration = SimTime::from_seconds(max_s);
  o.episode_length = SimTime::from_seconds(episode_s);
  o.seed = seed;
  return o;
}

/// The plan's warm start trains from this table (a short cold run).
const rl::QTable& warm_base() {
  static const TrainingResult base =
      train_next(workload::AppId::kFacebook, core::NextConfig{}, budget(2, 60.0, 30.0));
  return base.table;
}

TrainingPlan golden_plan() {
  TrainingPlan plan;
  // Same (max_duration, episode_length), stop_at_convergence unset.
  plan.add(workload::AppId::kFacebook, core::NextConfig{}, budget(3, 120.0, 40.0));
  plan.add(workload::AppId::kLineage, core::NextConfig{}, budget(4, 120.0, 40.0));
  TrainingOptions warm = budget(5, 120.0, 40.0);
  warm.initial_table = &warm_base();
  plan.add(workload::AppId::kFacebook, core::NextConfig{}, warm);
  // Early stopping.
  TrainingOptions stop = budget(6, 900.0, 60.0);
  stop.stop_at_convergence = true;
  plan.add(workload::AppId::kYoutube, core::NextConfig{}, stop);
  return plan;
}

void print_replacement_table(const std::vector<TrainingFingerprint>& actual) {
  std::printf("\n--- replacement golden table (paste into training_golden_test.cpp) ---\n");
  std::printf("constexpr TrainingFingerprint kGolden[] = {\n");
  for (const auto& f : actual) {
    std::printf("    {\"%.*s\", 0x%08" PRIx32 "u, %" PRIu64 "u, %" PRIu64 "u, %s, 0x%016" PRIx64
                "ull, 0x%016" PRIx64 "ull},\n",
                static_cast<int>(f.cell.size()), f.cell.data(), f.table_crc, f.table_bytes,
                f.decisions, f.converged ? "true" : "false", f.sim_seconds_bits,
                f.final_mean_reward_bits);
  }
  std::printf("};\n------------------------------------------------------------------------\n\n");
}

void expect_golden(const std::vector<TrainingResult>& results) {
  ASSERT_EQ(results.size(), std::size(kCellNames));
  std::vector<TrainingFingerprint> actual;
  for (std::size_t i = 0; i < results.size(); ++i) {
    actual.push_back(fingerprint(kCellNames[i], results[i]));
  }
  bool ok = actual.size() == std::size(kGolden);
  EXPECT_TRUE(ok) << "golden table and plan diverged";
  for (std::size_t i = 0; ok && i < actual.size(); ++i) {
    const TrainingFingerprint& g = kGolden[i];
    const TrainingFingerprint& a = actual[i];
    SCOPED_TRACE(std::string{"cell "} + std::string{a.cell});
    EXPECT_EQ(g.cell, a.cell);
    EXPECT_EQ(g.table_crc, a.table_crc);
    EXPECT_EQ(g.table_bytes, a.table_bytes);
    EXPECT_EQ(g.decisions, a.decisions);
    EXPECT_EQ(g.converged, a.converged);
    EXPECT_EQ(g.sim_seconds_bits, a.sim_seconds_bits);
    EXPECT_EQ(g.final_mean_reward_bits, a.final_mean_reward_bits);
  }
  if (::testing::Test::HasFailure()) print_replacement_table(actual);
}

TEST(TrainingGolden, SerialPerCellMatchesFingerprint) {
  expect_golden(execute(golden_plan(), {.workers = 1}));
}

TEST(TrainingGolden, LockStepOnTwoWorkersMatchesFingerprint) {
  expect_golden(execute(golden_plan(), {.workers = 2}));
}

}  // namespace
}  // namespace nextgov::sim
