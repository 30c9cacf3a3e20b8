// run_app.hpp - one catalog-app session through the production entry point
// (RunPlan::add plus execute()), for tests that need a single session.
#pragma once

#include <utility>

#include "sim/runner.hpp"

namespace nextgov::test {

inline sim::SessionResult run_app(workload::AppId app, const sim::ExperimentConfig& config) {
  sim::RunPlan plan;
  plan.add(app, config);
  return std::move(sim::execute(plan, {.workers = 1}).front());
}

}  // namespace nextgov::test
