// Tests for execute()'s pooled path on scenario matrices: the bit-identity
// contract across worker counts, on evaluation and training plans. The
// suite name "Multiproc" and the "Process"/"Sharded" test names predate
// the thread-only pool (the plan once also ran across forked worker
// processes); they are kept so test history stays traceable. The reference
// is serial execution.
#include <gtest/gtest.h>

#include <vector>

#include "sim/scenario.hpp"
#include "training_compare.hpp"

namespace nextgov::sim {
namespace {

/// 4 scenarios x 3 ambients = 12 cells, trimmed to 20 s sessions so the
/// full matrix stays test-suite cheap. How the plan splits across workers,
/// not session length, is under test.
ScenarioMatrix short_matrix() {
  ScenarioMatrix matrix;
  for (const char* name :
       {"fig1_session", "social_gaming", "spotify_bursty", "pubg_hot35"}) {
    ScenarioSpec spec = scenario(name);
    spec.duration = SimTime::from_seconds(20.0);
    matrix.add(std::move(spec));
  }
  matrix.ambients({15.0, 25.0, 35.0});
  return matrix;
}

/// Every cell of `matrix` under schedutil, in cell order.
RunPlan schedutil_plan(const ScenarioMatrix& matrix) {
  RunPlan plan;
  append_cells(plan, matrix.expand(), GovernorKind::kSchedutil);
  return plan;
}

/// The serial reference path.
constexpr ExecOptions kSerial{.workers = 1};

/// Cells across `workers` threads.
ExecOptions in_workers(std::size_t workers) { return {.workers = workers}; }

void expect_all_bit_identical(const std::vector<SessionResult>& expected,
                              const std::vector<SessionResult>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(bit_identical(expected[i], actual[i])) << "cell " << i << " diverged";
  }
}

TEST(Multiproc, MatrixBitIdenticalAcrossProcessCounts) {
  const RunPlan plan = schedutil_plan(short_matrix());
  ASSERT_GE(plan.size(), 12u);
  const std::vector<SessionResult> reference = execute(plan, kSerial);

  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(workers);
    expect_all_bit_identical(reference, execute(plan, in_workers(workers)));
  }
}

TEST(Multiproc, EmptyPlanYieldsEmptyResults) {
  EXPECT_TRUE(execute(RunPlan{}, in_workers(4)).empty());
  EXPECT_TRUE(execute(TrainingPlan{}, in_workers(4)).empty());
}

TEST(Multiproc, MoreProcessesThanCellsClampsToCells) {
  ScenarioSpec spec = scenario("fig1_session");
  spec.duration = SimTime::from_seconds(20.0);
  ScenarioMatrix matrix;
  matrix.add(std::move(spec)).ambients({21.0, 35.0});  // 2 cells
  const RunPlan plan = schedutil_plan(matrix);
  EXPECT_EQ(resolve_workers(8, plan.size()), plan.size());
  const std::vector<SessionResult> reference = execute(plan, kSerial);
  expect_all_bit_identical(reference, execute(plan, in_workers(8)));
}

TEST(Multiproc, TrainingPlanShardedBitIdentical) {
  TrainingPlan plan;
  TrainingOptions opts;
  opts.max_duration = SimTime::from_seconds(30.0);
  opts.episode_length = SimTime::from_seconds(15.0);
  for (std::uint64_t s = 0; s < 4; ++s) {
    opts.seed = 100 + s;
    plan.add(workload::AppId::kFacebook, core::NextConfig{}, opts);
  }
  const std::vector<TrainingResult> reference = execute(plan, kSerial);
  const std::vector<TrainingResult> pooled = execute(plan, in_workers(2));
  ASSERT_EQ(reference.size(), pooled.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    SCOPED_TRACE(i);
    expect_training_identical(reference[i], pooled[i]);
  }
}

}  // namespace
}  // namespace nextgov::sim
