// Tests for training plans through sim::execute(): plan construction, the
// determinism contract (N-worker training is bit-identical to serial in
// plan order, wall_seconds excepted), warm starts and failure propagation.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/runner.hpp"
#include "training_compare.hpp"

namespace nextgov::sim {
namespace {

TrainingOptions short_training(std::uint64_t seed, double budget_s = 40.0) {
  TrainingOptions opts;
  opts.max_duration = SimTime::from_seconds(budget_s);
  opts.episode_length = SimTime::from_seconds(20.0);
  opts.seed = seed;
  return opts;
}

TEST(TrainingPlan, BuildsCellsInOrder) {
  TrainingPlan plan;
  plan.add(workload::AppId::kFacebook, core::NextConfig{}, short_training(1));
  core::NextConfig fine;
  fine.fps_levels = 60;
  plan.add(workload::AppId::kLineage, fine, short_training(2));
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.cells()[0].name, "facebook");
  EXPECT_EQ(plan.cells()[1].name, "lineage");
  EXPECT_EQ(plan.cells()[1].config.fps_levels, 60u);
  EXPECT_EQ(plan.cells()[1].options.seed, 2u);
}

TEST(TrainingPlan, SeedSweepUsesDerivedSeeds) {
  TrainingPlan plan;
  plan.add_seed_sweep(workload::AppId::kPubg, core::NextConfig{}, short_training(0), 3, 99);
  ASSERT_EQ(plan.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(plan.cells()[i].options.seed, derive_seed(99, i));
  }
}

TEST(TrainingPlan, AddRejectsNullFactory) {
  TrainingPlan plan;
  EXPECT_THROW(plan.add(AppFactory{}, "broken", core::NextConfig{}, short_training(1)),
               ConfigError);
}

TEST(TrainingRunner, ParallelIsBitIdenticalToSerial) {
  // 2 apps x 2 seeds, short budgets: enough to cross episode restarts and
  // exercise the full RL stack under real concurrency.
  TrainingPlan plan;
  plan.add(workload::AppId::kFacebook, core::NextConfig{}, short_training(5));
  plan.add(workload::AppId::kFacebook, core::NextConfig{}, short_training(6));
  plan.add(workload::AppId::kLineage, core::NextConfig{}, short_training(7));
  plan.add(workload::AppId::kLineage, core::NextConfig{}, short_training(8));
  const auto serial = execute(plan, {.workers = 1});
  const auto parallel = execute(plan, {.workers = 4});
  ASSERT_EQ(serial.size(), plan.size());
  ASSERT_EQ(parallel.size(), plan.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_training_identical(serial[i], parallel[i]);
  }
}

TEST(TrainingRunner, WarmStartResumesFromTable) {
  TrainingPlan cold_plan;
  cold_plan.add(workload::AppId::kFacebook, core::NextConfig{}, short_training(11, 60.0));
  const TrainingResult cold = std::move(execute(cold_plan).front());
  ASSERT_GT(cold.table.state_count(), 0u);

  TrainingOptions warm_opts = short_training(12, 30.0);
  warm_opts.initial_table = &cold.table;
  TrainingPlan warm_plan;
  warm_plan.add(workload::AppId::kFacebook, core::NextConfig{}, warm_opts);
  const TrainingResult warm = std::move(execute(warm_plan).front());

  // The warm-started agent keeps the cold run's coverage (and adds to it).
  EXPECT_GE(warm.table.state_count(), cold.table.state_count());
  EXPECT_GT(warm.table.total_visits(), cold.table.total_visits());
}

TEST(TrainingRunner, EmptyPlanReturnsEmpty) {
  EXPECT_TRUE(execute(TrainingPlan{}, {}).empty());
}

TEST(TrainingRunner, PropagatesTrainingFailure) {
  TrainingPlan plan;
  plan.add(workload::AppId::kHome, core::NextConfig{}, short_training(1, 5.0));
  plan.add([](std::uint64_t) -> std::unique_ptr<workload::App> {
    throw ConfigError("boom");
  }, "broken", core::NextConfig{}, short_training(2, 5.0));
  EXPECT_THROW((void)execute(plan, {.workers = 2}), ConfigError);
}

}  // namespace
}  // namespace nextgov::sim
