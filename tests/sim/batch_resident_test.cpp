// Tests for the batch-resident stepping pipeline: bit-identity of
// execute()'s lock-step path against per-session execution across the whole
// scenario library and mixed-governor groups, the padded-lane contract
// (unused SoA tail lanes never go NaN/Inf or perturb live sessions), and
// the Engine phase-split equivalence the pipeline is built on.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "soc/power_batch.hpp"
#include "thermal/rc_batch.hpp"

namespace nextgov::sim {
namespace {

void expect_all_bit_identical(const std::vector<SessionResult>& a,
                              const std::vector<SessionResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(bit_identical(a[i], b[i]))
        << "session " << i << " (" << a[i].app << " / " << a[i].governor << ")";
  }
}

/// Library scenario shortened so tests stay fast; the shared duration is
/// what makes every session join one lock-step group.
ScenarioSpec short_scenario(std::string_view name, double seconds) {
  ScenarioSpec spec = scenario(name);
  spec.duration = SimTime::from_seconds(seconds);
  return spec;
}

TEST(BatchResident, AllLibraryScenariosBitIdenticalToSerial) {
  // Every library scenario in one lock-step group (same duration, shared
  // topology, same 1 ms step - refresh/ambient/workload all vary), with the
  // governor cycling so NextAgent lanes and non-Next fallback lanes share
  // the group: exactly the heterogeneity the resident pipeline must absorb.
  constexpr GovernorKind kCycle[] = {GovernorKind::kNext, GovernorKind::kSchedutil,
                                     GovernorKind::kIntQos, GovernorKind::kOndemand};
  RunPlan plan;
  std::size_t i = 0;
  for (const std::string_view name : scenario_names()) {
    const ScenarioSpec spec = short_scenario(name, 2.0);
    plan.add(spec.app_factory(), spec.name,
             spec.experiment_config(kCycle[i++ % std::size(kCycle)]));
  }
  ASSERT_GE(plan.size(), 12u);

  const auto serial = execute(plan, {.workers = 1, .max_batch = 1});
  const auto batched = execute(plan, {.workers = 1, .max_batch = plan.size()});
  expect_all_bit_identical(serial, batched);

  // Worker count must not matter either (scheduling invariance).
  const auto batched_mt = execute(plan, {.workers = 3, .max_batch = 4});
  expect_all_bit_identical(serial, batched_mt);
}

TEST(BatchResident, MixedAgentModesShareOneGroup) {
  // Training-mode Next (exploring lanes with their own rng), deployed Next
  // (greedy lanes through rl::best_actions) and plain kernel governors in
  // one group: control_group must keep every lane's trajectory exactly what
  // per-session control() would produce.
  const ScenarioSpec spec = short_scenario("fig1_session", 3.0);
  RunPlan plan;
  ExperimentConfig training = spec.experiment_config(GovernorKind::kNext);
  training.next_mode = core::AgentMode::kTraining;
  plan.add(spec.app_factory(), "next_training", training);
  plan.add(spec.app_factory(), "next_deployed",
           spec.experiment_config(GovernorKind::kNext));
  ExperimentConfig training2 = training;
  training2.seed = 17;
  plan.add(spec.app_factory(), "next_training_seed17", training2);
  plan.add(spec.app_factory(), "schedutil",
           spec.experiment_config(GovernorKind::kSchedutil));
  plan.add(spec.app_factory(), "performance",
           spec.experiment_config(GovernorKind::kPerformance));
  plan.add(spec.app_factory(), "intqos", spec.experiment_config(GovernorKind::kIntQos));

  const auto serial = execute(plan, {.workers = 1, .max_batch = 1});
  const auto batched = execute(plan, {.workers = 1, .max_batch = plan.size()});
  expect_all_bit_identical(serial, batched);
}

TEST(BatchResident, PaddedTailLanesStayFiniteAndDoNotPerturbLiveSessions) {
  // Drive the resident pipeline by hand with more SoA lanes than live
  // sessions: live engines in lanes 0..k-1, tail lanes never attached and
  // never fed inputs. The contract: tail lanes must stay finite through the
  // sweeps (they do get leakage power and thermal relaxation), and the live
  // sessions must be bit-identical to detached per-session stepping.
  const ScenarioSpec spec_a = short_scenario("fig1_session", 1.5);
  const ScenarioSpec spec_b = short_scenario("fig1_session_35c", 1.5);
  const ExperimentConfig config_a = spec_a.experiment_config(GovernorKind::kNext);
  const ExperimentConfig config_b = spec_b.experiment_config(GovernorKind::kSchedutil);

  std::vector<std::unique_ptr<Engine>> live;
  live.push_back(make_engine(spec_a.app_factory(), config_a));
  live.push_back(make_engine(spec_b.app_factory(), config_b));
  std::vector<std::unique_ptr<Engine>> reference;
  reference.push_back(make_engine(spec_a.app_factory(), config_a));
  reference.push_back(make_engine(spec_b.app_factory(), config_b));

  constexpr std::size_t kLanes = 5;  // 2 live + 3 padded tail lanes
  thermal::RcBatch rc{live.front()->thermal().topology(), kLanes};
  soc::PowerBatch power{live.front()->soc(), kLanes};
  ASSERT_TRUE(power.compatible(live[1]->soc()));

  const auto& nodes = live.front()->cluster_nodes();
  std::vector<const double*> temp_lanes;
  std::vector<double*> power_lanes;
  for (const thermal::NodeId node : nodes) {
    temp_lanes.push_back(rc.temperature_lane(node));
    power_lanes.push_back(rc.power_lane(node));
  }
  for (std::size_t s = 0; s < live.size(); ++s) live[s]->attach_thermal_batch(rc, s);

  const SimTime dt = live.front()->config().step;
  const std::int64_t ticks = config_a.duration.us() / dt.us();
  for (std::int64_t t = 0; t < ticks; ++t) {
    for (std::size_t s = 0; s < live.size(); ++s) {
      live[s]->step_pre_power();
      live[s]->push_power_inputs(power, s);
    }
    power.evaluate(temp_lanes, power_lanes);
    rc.step(dt);
    for (std::size_t s = 0; s < live.size(); ++s) {
      live[s]->set_device_power(power.device_power(s));
      live[s]->step_post_observe();
      live[s]->step_post_meta();
      live[s]->step_post_finish();
    }
    for (auto& ref : reference) ref->step();
  }
  for (auto& e : live) e->detach_thermal_batch();

  for (std::size_t s = 0; s < live.size(); ++s) {
    EXPECT_TRUE(bit_identical(summarize(*live[s], "app", "gov"),
                              summarize(*reference[s], "app", "gov")))
        << "live lane " << s;
  }
  for (std::size_t s = live.size(); s < kLanes; ++s) {
    EXPECT_TRUE(std::isfinite(power.device_power(s).value())) << "tail lane " << s;
    for (std::size_t node = 0; node < rc.node_count(); ++node) {
      const double temp = rc.temperature_lane(thermal::NodeId{node})[s];
      EXPECT_TRUE(std::isfinite(temp)) << "tail lane " << s << " node " << node;
      EXPECT_GT(temp, -50.0);
      EXPECT_LT(temp, 150.0);
    }
  }
}

TEST(BatchResident, EnginePhaseSplitComposesToStep) {
  // The fine-grained phases are only usable by batch drivers if their
  // concatenation is exactly step(); run one engine through each path and
  // demand a bitwise-equal summary (no batch involved - this pins the phase
  // split itself).
  const ScenarioSpec spec = short_scenario("fig1_session", 2.0);
  const ExperimentConfig config = spec.experiment_config(GovernorKind::kNext);
  auto phased = make_engine(spec.app_factory(), config);
  auto stepped = make_engine(spec.app_factory(), config);

  const SimTime dt = phased->config().step;
  const std::int64_t ticks = config.duration.us() / dt.us();
  for (std::int64_t t = 0; t < ticks; ++t) {
    phased->step_pre_power();
    phased->apply_power_model();
    phased->thermal().step(dt);
    phased->step_post_observe();
    if (phased->meta_control_due()) phased->step_post_meta();
    phased->step_post_finish();
    stepped->step();
  }
  EXPECT_TRUE(bit_identical(summarize(*phased, "app", "gov"),
                            summarize(*stepped, "app", "gov")));
  EXPECT_EQ(phased->now().us(), stepped->now().us());
}

}  // namespace
}  // namespace nextgov::sim
