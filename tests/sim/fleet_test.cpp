// Tests for the calm fleet (sim/fleet_server.hpp with no churn configured):
// synchronous FedAvg over every device every round, determinism across
// worker counts, the per-round progress callback, up-front option
// validation, deployability of the global aggregate, the upload wire codec
// (sim/fleet.hpp) on both its paths, and the ExecOptions as pure execution
// strategy - including across a ring restore. The "Process" test names predate the thread-only pool (rounds
// once also trained across forked worker processes); they are kept so test
// history stays traceable.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "run_app.hpp"
#include "sim/fleet_server.hpp"
#include "temp_path.hpp"

namespace nextgov::sim {
namespace {

/// A calm four-device fleet whose rounds are fast enough for the unit tier.
FleetServerOptions calm_fleet() {
  FleetServerOptions options;
  options.devices = 4;
  options.round_duration = SimTime::from_seconds(30.0);
  options.round_deadline = SimTime::from_seconds(50.0);
  options.episode_length = SimTime::from_seconds(15.0);
  options.base_seed = 321;
  return options;
}

std::vector<std::uint8_t> canonical_bytes(const rl::QTable& table) {
  ByteWriter out;
  table.serialize(out);
  return out.data();
}

std::string ring_prefix(const std::string& name) {
  return test::unique_temp_path("nextgov_fleet_" + name);
}

TEST(Fleet, CalmServerIsSynchronousFedAvg) {
  // With no churn, round 0's global table is exactly the FedAvg merge of
  // every device's round-0 table: each device trains cold with seed
  // derive_seed(derive_seed(base_seed, d), 0), every upload lands before
  // the deadline with staleness 0, and a fresh merge is the plain one.
  const FleetServerOptions options = calm_fleet();
  FleetServer server{workload::AppId::kFacebook, options, {.workers = 2}};
  server.run_round();
  ASSERT_NE(server.global(), nullptr);

  TrainingPlan plan;
  for (std::size_t d = 0; d < options.devices; ++d) {
    TrainingOptions cell;
    cell.max_duration = options.round_duration;
    cell.episode_length = options.episode_length;
    cell.seed = derive_seed(derive_seed(options.base_seed, d), 0);
    cell.ambient = options.ambient;
    plan.add(workload::AppId::kFacebook, options.next_config, cell);
  }
  const std::vector<TrainingResult> devices = execute(plan, {.workers = 2});
  std::vector<const rl::QTable*> tables;
  for (const TrainingResult& r : devices) tables.push_back(&r.table);
  const std::vector<double> fresh(tables.size(), 0.0);
  EXPECT_EQ(canonical_bytes(*server.global()),
            canonical_bytes(rl::merge_q_tables(tables, fresh)));
  EXPECT_EQ(server.stats().uploads_accepted, options.devices);
}

TEST(Fleet, DeterministicAcrossWorkerCounts) {
  // Each round trains every device through the worker pool; the
  // global table and everything the progress callback reports (apart from
  // wall time) must be independent of the pool size.
  const FleetServerOptions options = calm_fleet();
  const auto run = [&](std::size_t workers, std::vector<FleetServerRoundStats>& rounds) {
    FleetServer server{workload::AppId::kFacebook, options, {.workers = workers}};
    server.run_rounds(2, [&](const FleetServerRoundStats& rs) { rounds.push_back(rs); });
    EXPECT_NE(server.global(), nullptr);
    return std::make_pair(canonical_bytes(*server.global()), server.stats().total_decisions);
  };
  std::vector<FleetServerRoundStats> serial_rounds;
  const auto serial = run(1, serial_rounds);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(workers);
    std::vector<FleetServerRoundStats> rounds;
    const auto pooled = run(workers, rounds);
    EXPECT_EQ(serial.first, pooled.first);
    EXPECT_EQ(serial.second, pooled.second);
    ASSERT_EQ(rounds.size(), serial_rounds.size());
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      EXPECT_EQ(rounds[r].mean_reward, serial_rounds[r].mean_reward) << "round " << r;
      EXPECT_EQ(rounds[r].global_states, serial_rounds[r].global_states) << "round " << r;
      EXPECT_EQ(rounds[r].upload_bytes, serial_rounds[r].upload_bytes) << "round " << r;
    }
  }
}

TEST(Fleet, DeterministicAcrossProcessCounts) {
  // The uneven rung of the same contract: the devices do not split evenly
  // across the workers (4 devices over 3), and the global table must still
  // come out bit-identical.
  FleetServerOptions options = calm_fleet();
  FleetServer serial{workload::AppId::kFacebook, options, {.workers = 1}};
  std::vector<double> rewards;
  serial.run_rounds(2, [&](const FleetServerRoundStats& rs) {
    rewards.push_back(rs.mean_reward);
  });
  ASSERT_NE(serial.global(), nullptr);
  FleetServer pooled{workload::AppId::kFacebook, options, {.workers = 3}};
  std::vector<double> pooled_rewards;
  pooled.run_rounds(2, [&](const FleetServerRoundStats& rs) {
    pooled_rewards.push_back(rs.mean_reward);
  });
  ASSERT_NE(pooled.global(), nullptr);
  EXPECT_EQ(canonical_bytes(*serial.global()), canonical_bytes(*pooled.global()));
  EXPECT_EQ(serial.stats().total_decisions, pooled.stats().total_decisions);
  EXPECT_EQ(rewards, pooled_rewards);
}

TEST(Fleet, ProgressFiresOncePerRoundAndCoverageGrows) {
  // The callback fires exactly once per served round, in order, and a calm
  // fleet's global coverage never shrinks: every device warm-starts from
  // the global, so each merge holds at least the previous round's states.
  FleetServer server{workload::AppId::kFacebook, calm_fleet(), {.workers = 2}};
  std::vector<FleetServerRoundStats> rounds;
  server.run_rounds(3, [&](const FleetServerRoundStats& rs) { rounds.push_back(rs); });
  ASSERT_EQ(rounds.size(), 3u);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    SCOPED_TRACE(r);
    EXPECT_EQ(rounds[r].round, r);
    EXPECT_EQ(rounds[r].training_devices, calm_fleet().devices);
    EXPECT_GT(rounds[r].global_states, 0u);
    if (r > 0) {
      EXPECT_GE(rounds[r].global_states, rounds[r - 1].global_states);
    }
  }
  ASSERT_NE(server.global(), nullptr);
  EXPECT_EQ(rounds.back().global_states, server.global()->state_count());
  // A single run_round() reports the next round and nothing else.
  std::size_t calls = 0;
  server.run_round([&](const FleetServerRoundStats& rs) {
    ++calls;
    EXPECT_EQ(rs.round, 3u);
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(server.stats().rounds_served, 4u);
}

TEST(Fleet, RejectsBadGeometry) {
  // Constructing a server over a degenerate fleet fails fast, before any
  // round (or ring restore) runs.
  FleetServerOptions options = calm_fleet();
  options.devices = 0;
  EXPECT_THROW((FleetServer{workload::AppId::kFacebook, options}), ConfigError);
  options = calm_fleet();
  options.round_duration = SimTime::zero();
  EXPECT_THROW((FleetServer{workload::AppId::kFacebook, options}), ConfigError);
  options = calm_fleet();
  options.round_deadline = options.round_duration;  // no time left to upload
  EXPECT_THROW((FleetServer{workload::AppId::kFacebook, options}), ConfigError);
  EXPECT_NO_THROW((FleetServer{workload::AppId::kFacebook, calm_fleet()}));
}

TEST(Fleet, ValidationPinsEveryDegenerateOption) {
  // validate_fleet_server_options is the server's up-front gate. One pin per
  // fleet geometry and fault-rate bound: each degenerate value must fail
  // fast with ConfigError instead of producing a silent no-op or a
  // divide-by-zero run. Rates outside [0, 1) - including NaN - are refused
  // for departures (per-round dropout) and damaged uploads.
  const auto expect_rejected = [](auto mutate, const char* label) {
    FleetServerOptions options = calm_fleet();
    mutate(options);
    EXPECT_THROW(validate_fleet_server_options(options), ConfigError) << label;
  };
  expect_rejected([](auto& o) { o.devices = 0; }, "devices == 0");
  expect_rejected([](auto& o) { o.round_duration = SimTime::zero(); }, "zero round");
  expect_rejected([](auto& o) { o.episode_length = SimTime::zero(); }, "zero episode");
  expect_rejected([](auto& o) { o.churn.depart_rate = 1.0; }, "depart_rate == 1");
  expect_rejected([](auto& o) { o.churn.depart_rate = -0.1; }, "negative depart_rate");
  expect_rejected([](auto& o) { o.churn.depart_rate = std::nan(""); }, "NaN depart_rate");
  expect_rejected([](auto& o) { o.churn.upload_fail_rate = 1.5; }, "fail_rate > 1");
  expect_rejected([](auto& o) { o.churn.upload_fail_rate = -0.5; }, "negative fail_rate");
  expect_rejected([](auto& o) { o.churn.straggle_rate = 1.01; }, "straggle_rate > 1");
  expect_rejected([](auto& o) { o.churn.straggle_rate = -0.01; }, "negative straggle_rate");
  expect_rejected([](auto& o) { o.snapshot_ring = 2; }, "snapshot_ring without prefix");
  EXPECT_NO_THROW(validate_fleet_server_options(calm_fleet()));
  // The boundary values a fleet may legitimately use stay accepted.
  FleetServerOptions edge = calm_fleet();
  edge.churn.straggle_rate = 1.0;
  edge.churn.depart_rate = 0.0;
  edge.churn.upload_fail_rate = 0.0;
  EXPECT_NO_THROW(validate_fleet_server_options(edge));
}

TEST(Fleet, GlobalTableIsDeployable) {
  FleetServer server{workload::AppId::kFacebook, calm_fleet(), {.workers = 2}};
  server.run_rounds(2);
  ASSERT_NE(server.global(), nullptr);
  ExperimentConfig cfg;
  cfg.governor = GovernorKind::kNext;
  cfg.duration = SimTime::from_seconds(20.0);
  cfg.seed = 999;
  cfg.trained_table = server.global();
  const SessionResult session = test::run_app(workload::AppId::kFacebook, cfg);
  EXPECT_GT(session.avg_power_w, 0.1);
  EXPECT_GT(session.avg_fps, 0.0);
}

TEST(Fleet, UploadWireCodecRoundTripsBothPaths) {
  // decode_upload(encode_upload(t, ...)) == t bit-exactly on both the full
  // and the delta path - the invariant that lets the server keep the form
  // it holds instead of the decoded table.
  rl::QTable base{4, 2.5};
  base.set_q(10, 1, 0.5);
  base.record_visit(10);
  base.set_q(11, 2, -1.25);
  rl::QTable next = base;
  next.set_q(10, 3, 7.0);
  next.record_visit(10);
  next.set_q(99, 0, 3.5);
  next.record_visit(99);

  const auto is_delta = [](const std::vector<std::uint8_t>& blob) {
    return SnapshotReader{blob, "test"}.has("delta");
  };
  const std::vector<std::uint8_t> full = encode_upload(next, nullptr);
  EXPECT_FALSE(is_delta(full));
  EXPECT_TRUE(decode_upload(full, nullptr, "test") == next);

  const std::vector<std::uint8_t> delta = encode_upload(next, &base);
  EXPECT_TRUE(is_delta(delta));
  EXPECT_LT(delta.size(), full.size());  // only the touched states travel
  EXPECT_TRUE(decode_upload(delta, &base, "test") == next);

  // A delta against a base the receiver does not hold must be refused, not
  // misapplied - same failure surface as any damaged blob.
  rl::QTable other{4, 2.5};
  other.set_q(10, 1, 0.5);  // differs from `base` in visits/states
  EXPECT_THROW((void)decode_upload(delta, &other, "test"), SerializeError);
  EXPECT_THROW((void)decode_upload(delta, nullptr, "test"), SerializeError);

  // A base that is not a subset of the table falls back to the full wire.
  rl::QTable unrelated{4, 2.5};
  unrelated.set_q(12345, 0, 1.0);
  const std::vector<std::uint8_t> fallback = encode_upload(next, &unrelated);
  EXPECT_FALSE(is_delta(fallback));
  EXPECT_TRUE(decode_upload(fallback, nullptr, "test") == next);
}

TEST(Fleet, ProcessesKnobExcludedFromOptionsIdentity) {
  // A ring written serially must resume pooled: the worker count is
  // execution strategy, not trajectory, so it lives in the constructor's
  // ExecOptions rather than in the FleetServerOptions a ring entry pins.
  // Pinned end to end by killing a serial server and resuming it on two
  // workers.
  FleetServerOptions options = calm_fleet();
  FleetServer straight{workload::AppId::kFacebook, options, {.workers = 1}};
  straight.run_rounds(3);
  ASSERT_NE(straight.global(), nullptr);

  options.snapshot_ring = 2;
  options.snapshot_prefix = ring_prefix("process_resume");
  {
    FleetServer doomed{workload::AppId::kFacebook, options, {.workers = 1}};
    doomed.run_rounds(2);
  }  // destroyed without drain(): kill -9
  FleetServer resumed{workload::AppId::kFacebook, options, {.workers = 2}};
  ASSERT_TRUE(resumed.restored());
  EXPECT_EQ(resumed.round(), 2u);
  resumed.run_rounds(1);
  ASSERT_NE(resumed.global(), nullptr);
  EXPECT_EQ(canonical_bytes(*straight.global()), canonical_bytes(*resumed.global()));
  EXPECT_EQ(straight.stats().total_decisions, resumed.stats().total_decisions);
}

}  // namespace
}  // namespace nextgov::sim
