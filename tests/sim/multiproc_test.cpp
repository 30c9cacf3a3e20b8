// Tests for execute()'s multi-process path (sim/multiproc.hpp): the
// bit-identity contract across process counts, the degrade-never-wedge
// recovery path (killed and frame-corrupting workers), the in-process
// passthrough, and the wire codec's bit-exact round trip. Unless a test
// says otherwise, shards run the per-session path (max_batch = 1) on one
// thread each, and the reference is serial per-session execution.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sim/multiproc.hpp"
#include "sim/scenario.hpp"

namespace nextgov::sim {
namespace {

/// 4 scenarios x 3 seeds = 12 cells (the acceptance floor for the sharded
/// sweep contract), trimmed to 20 s sessions so the full matrix stays
/// test-suite cheap. Shard geometry, not session length, is under test.
ScenarioMatrix short_matrix() {
  ScenarioMatrix matrix;
  for (const char* name :
       {"fig1_session", "social_gaming", "spotify_bursty", "pubg_hot35"}) {
    ScenarioSpec spec = scenario(name);
    spec.duration = SimTime::from_seconds(20.0);
    matrix.add(std::move(spec));
  }
  matrix.seeds(3);
  return matrix;
}

/// The serial per-session reference path.
constexpr ExecOptions kSerial{.workers = 1, .max_batch = 1};

/// Per-session shards, one thread each, across `processes` workers.
ExecOptions in_processes(std::size_t processes, MultiprocFaultPlan faults = {}) {
  return {.workers = 1, .max_batch = 1, .processes = processes, .faults = faults};
}

void expect_all_bit_identical(const std::vector<SessionResult>& expected,
                              const std::vector<SessionResult>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(bit_identical(expected[i], actual[i])) << "cell " << i << " diverged";
  }
}

void expect_training_identical(const TrainingResult& a, const TrainingResult& b) {
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.final_mean_reward, b.final_mean_reward);
  EXPECT_EQ(a.states_visited, b.states_visited);
  ASSERT_EQ(a.table.state_count(), b.table.state_count());
  EXPECT_EQ(a.table.total_visits(), b.table.total_visits());
  a.table.for_each_entry([&](const rl::QTable::EntryView& ea) {
    ASSERT_TRUE(b.table.contains(ea.key())) << "state " << ea.key() << " missing";
    EXPECT_EQ(ea.visits(), b.table.visits(ea.key()));
    EXPECT_EQ(ea.tried(), b.table.tried_mask(ea.key()));
    for (std::size_t i = 0; i < a.table.action_count(); ++i) {
      EXPECT_EQ(ea.q(i), b.table.q(ea.key(), i)) << "state " << ea.key() << " action " << i;
    }
  });
  EXPECT_TRUE(a.table == b.table);
}

TEST(Multiproc, MatrixBitIdenticalAcrossProcessCounts) {
  const RunPlan plan = short_matrix().to_run_plan(GovernorKind::kSchedutil);
  ASSERT_GE(plan.size(), 12u);
  const std::vector<SessionResult> reference = execute(plan, kSerial);

  for (const std::size_t processes : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(processes);
    ShardReport report;
    const std::vector<SessionResult> sharded = execute(plan, in_processes(processes), &report);
    expect_all_bit_identical(reference, sharded);
    EXPECT_EQ(report.processes, processes);
    EXPECT_EQ(report.shards.size(), processes);
    EXPECT_EQ(report.recovered_shards(), 0u);
    EXPECT_EQ(report.frames, plan.size());
    EXPECT_GT(report.bytes, 0u);
    // Shards tile the plan contiguously, in order, covering every cell.
    std::size_t next_cell = 0;
    for (const auto& shard : report.shards) {
      EXPECT_EQ(shard.first_cell, next_cell);
      EXPECT_TRUE(shard.failure.empty());
      next_cell += shard.cell_count;
    }
    EXPECT_EQ(next_cell, plan.size());
  }
}

TEST(Multiproc, ScenarioMatrixRunConvenience) {
  const ScenarioMatrix matrix = short_matrix();
  const std::vector<SessionResult> direct =
      execute(matrix.to_run_plan(GovernorKind::kSchedutil), kSerial);
  ShardReport report;
  const std::vector<SessionResult> swept =
      execute(matrix.to_run_plan(GovernorKind::kSchedutil), in_processes(2), &report);
  expect_all_bit_identical(direct, swept);
  EXPECT_EQ(report.processes, 2u);
}

TEST(Multiproc, SingleProcessPassthroughForksNothing) {
  const RunPlan plan = short_matrix().to_run_plan(GovernorKind::kSchedutil);
  const std::vector<SessionResult> reference = execute(plan, kSerial);
  ShardReport report;
  const std::vector<SessionResult> results =
      execute(plan, in_processes(1), &report);
  expect_all_bit_identical(reference, results);
  EXPECT_EQ(report.processes, 0u);  // nothing forked
  EXPECT_EQ(report.frames, 0u);     // nothing crossed a pipe
}

TEST(Multiproc, EmptyPlanYieldsEmptyResults) {
  ShardReport report;
  EXPECT_TRUE(execute(RunPlan{}, in_processes(4), &report).empty());
  EXPECT_EQ(report.processes, 0u);
  EXPECT_TRUE(execute(TrainingPlan{}, in_processes(4)).empty());
}

TEST(Multiproc, MoreProcessesThanCellsClampsToCells) {
  ScenarioSpec spec = scenario("fig1_session");
  spec.duration = SimTime::from_seconds(20.0);
  ScenarioMatrix matrix;
  matrix.add(std::move(spec)).seeds(2);  // 2 cells
  const RunPlan plan = matrix.to_run_plan(GovernorKind::kSchedutil);
  const std::vector<SessionResult> reference = execute(plan, kSerial);
  ShardReport report;
  const std::vector<SessionResult> results =
      execute(plan, in_processes(8), &report);
  expect_all_bit_identical(reference, results);
  EXPECT_LE(report.processes, plan.size());
  EXPECT_GE(report.processes, 2u);
}

TEST(Multiproc, KilledWorkerShardIsRerunBitIdentically) {
  const RunPlan plan = short_matrix().to_run_plan(GovernorKind::kSchedutil);
  const std::vector<SessionResult> reference = execute(plan, kSerial);
  ShardReport report;
  const std::vector<SessionResult> results =
      execute(plan, in_processes(2, {.kill_shard = 0}), &report);
  expect_all_bit_identical(reference, results);
  ASSERT_EQ(report.shards.size(), 2u);
  EXPECT_EQ(report.recovered_shards(), 1u);
  EXPECT_TRUE(report.shards[0].recovered);
  EXPECT_FALSE(report.shards[0].failure.empty());
  EXPECT_FALSE(report.shards[1].recovered);
}

TEST(Multiproc, KilledWorkerBeforeDoneFrameIsDetected) {
  // The kill lands after every result frame but before the done frame - a
  // clean-looking stream that is nonetheless incomplete must be rejected.
  const RunPlan plan = short_matrix().to_run_plan(GovernorKind::kSchedutil);
  const std::vector<SessionResult> reference = execute(plan, kSerial);
  ShardReport report;
  const std::vector<SessionResult> results =
      execute(plan, in_processes(2, {.kill_shard = 1, .kill_after_frames = 1000}), &report);
  expect_all_bit_identical(reference, results);
  EXPECT_EQ(report.recovered_shards(), 1u);
  EXPECT_TRUE(report.shards[1].recovered);
}

TEST(Multiproc, CorruptFrameShardIsRerunBitIdentically) {
  const RunPlan plan = short_matrix().to_run_plan(GovernorKind::kSchedutil);
  const std::vector<SessionResult> reference = execute(plan, kSerial);
  ShardReport report;
  const std::vector<SessionResult> results =
      execute(plan, in_processes(2, {.corrupt_shard = 1}), &report);
  expect_all_bit_identical(reference, results);
  ASSERT_EQ(report.shards.size(), 2u);
  EXPECT_EQ(report.recovered_shards(), 1u);
  EXPECT_TRUE(report.shards[1].recovered);
  EXPECT_NE(report.shards[1].failure.find("CRC"), std::string::npos)
      << "failure was: " << report.shards[1].failure;
}

TEST(Multiproc, BatchedShardsBitIdentical) {
  // Shards on execute()'s default (auto-sized lock-step) path and with an
  // explicit batch width.
  const RunPlan plan = short_matrix().to_run_plan(GovernorKind::kSchedutil);
  const std::vector<SessionResult> reference = execute(plan, kSerial);
  expect_all_bit_identical(reference, execute(plan, {.workers = 1, .processes = 2}));
  expect_all_bit_identical(reference,
                           execute(plan, {.workers = 1, .max_batch = 6, .processes = 2}));
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
  ShardReport report;
  const std::vector<TrainingResult> sharded = execute(plan, in_processes(2), &report);
  ASSERT_EQ(reference.size(), sharded.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    SCOPED_TRACE(i);
    expect_training_identical(reference[i], sharded[i]);
  }
  EXPECT_EQ(report.processes, 2u);
  EXPECT_EQ(report.recovered_shards(), 0u);
}

TEST(Multiproc, TrainingShardRecoversFromKilledWorker) {
  TrainingPlan plan;
  TrainingOptions opts;
  opts.max_duration = SimTime::from_seconds(30.0);
  opts.episode_length = SimTime::from_seconds(15.0);
  for (std::uint64_t s = 0; s < 4; ++s) {
    opts.seed = 100 + s;
    plan.add(workload::AppId::kFacebook, core::NextConfig{}, opts);
  }
  const std::vector<TrainingResult> reference = execute(plan, kSerial);
  ShardReport report;
  const std::vector<TrainingResult> sharded =
      execute(plan, in_processes(2, {.kill_shard = 0}), &report);
  ASSERT_EQ(reference.size(), sharded.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    SCOPED_TRACE(i);
    expect_training_identical(reference[i], sharded[i]);
  }
  EXPECT_EQ(report.recovered_shards(), 1u);
}

TEST(Multiproc, SessionResultCodecRoundTripsBitExactly) {
  SessionResult r;
  r.app = "codec_probe";
  r.governor = "next";
  r.duration_s = 123.456;
  r.avg_power_w = 1.0 / 3.0;  // not exactly representable in decimal
  r.peak_power_w = 5.25;
  r.avg_temp_big_c = 41.125;
  r.peak_temp_big_c = 78.0;
  r.avg_temp_device_c = 37.5;
  r.peak_temp_device_c = 55.0625;
  r.avg_fps = 59.94;
  r.energy_j = 1e-308;  // denormal-adjacent magnitude must survive
  r.frames_presented = 123456789;
  r.frames_dropped = -1;  // sentinel value: i64, not u64
  r.avg_ppdw = 0.0;
  Sample s{};
  s.time_s = 1.0;
  s.fps = 60.0;
  s.power_w = 2.5;
  s.ppdw = 1.0 / 7.0;
  r.series.push_back(s);
  s.time_s = 2.0;
  r.series.push_back(s);

  ByteWriter out;
  serialize_session_result(r, out);
  ByteReader in{out.data(), "codec test"};
  const SessionResult back = deserialize_session_result(in);
  EXPECT_TRUE(in.done());
  EXPECT_TRUE(bit_identical(r, back));
  EXPECT_EQ(r.app, back.app);
  EXPECT_EQ(r.governor, back.governor);
  ASSERT_EQ(back.series.size(), 2u);
  EXPECT_EQ(back.series[1].time_s, 2.0);
  EXPECT_EQ(back.series[0].ppdw, 1.0 / 7.0);
}

TEST(Multiproc, TrainingResultCodecRoundTripsBitExactly) {
  TrainingPlan plan;
  TrainingOptions opts;
  opts.max_duration = SimTime::from_seconds(20.0);
  opts.seed = 7;
  plan.add(workload::AppId::kFacebook, core::NextConfig{}, opts);
  const TrainingResult r = std::move(execute(plan, kSerial).front());

  ByteWriter out;
  serialize_training_result(r, out);
  ByteReader in{out.data(), "codec test"};
  const TrainingResult back = deserialize_training_result(in);
  EXPECT_TRUE(in.done());
  expect_training_identical(r, back);
}

TEST(Multiproc, TruncatedCodecBytesFailCleanly) {
  SessionResult r;
  r.app = "truncation_probe";
  ByteWriter out;
  serialize_session_result(r, out);
  std::vector<std::uint8_t> bytes = out.data();
  bytes.resize(bytes.size() / 2);
  ByteReader in{bytes, "truncation test"};
  EXPECT_THROW((void)deserialize_session_result(in), SerializeError);
}

}  // namespace
}  // namespace nextgov::sim
