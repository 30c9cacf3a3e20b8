// Allocation pin for the phone's loop: a deployed Next session's engine
// step allocates nothing once the session is under way. Counted by the
// operator new of counting_new.hpp.
#include <gtest/gtest.h>

#include "counting_new.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "workload/apps.hpp"

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
    const std::uint64_t before = test::allocations();
    for (int i = 0; i < 30'000; ++i) engine->step();
    EXPECT_EQ(test::allocations() - before, 0u) << "allocations in 30,000 steady-state steps";
  }
}

}  // namespace
}  // namespace nextgov::sim
