// engine.hpp - the fixed-step discrete-time simulation loop.
//
// Wires the substrates together at a 1 ms step:
//
//   app behaviour -> render pipeline (VSync/triple buffering) -> cluster
//   utilization -> power model -> RC thermal network -> sensors ->
//   governors (kernel FreqGovernor + application-layer MetaGovernor)
//
// The kernel governor reselects operating points every ~20 ms; the meta
// governor (Next / Int. QoS PM) adjusts maxfreq caps at its own period and,
// for Next, taps the 25 ms FPS sample stream. This mirrors the paper's
// deployment: an application-layer agent above the stock schedutil.
#pragma once

#include <array>
#include <memory>
#include <optional>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "governors/governor.hpp"
#include "render/pipeline.hpp"
#include "sim/recorder.hpp"
#include "soc/soc.hpp"
#include "thermal/note9_model.hpp"
#include "workload/app.hpp"

namespace nextgov::core {
class NextAgent;
}
namespace nextgov::soc {
class PowerBatch;
}
namespace nextgov::thermal {
class RcBatch;
}

namespace nextgov::sim {

struct EngineConfig {
  SimTime step{SimTime::from_ms(1)};
  Celsius ambient{Celsius{21.0}};  ///< paper: thermostat-controlled 21 C
  /// Display refresh rate. 60 Hz throughout the paper's evaluation, but
  /// Section I notes 90/120 Hz panels exist; the whole stack (VSync,
  /// frame-drop semantics, FPS counters) honours this knob. For Next on a
  /// high-refresh panel also raise NextConfig::ppdw_bounds.fps_max.
  double refresh_hz{60.0};
  /// Extra LITTLE-cluster utilization while a meta governor (the
  /// application-layer agent) is installed; Next "runs on the most power
  /// efficient CPU, which is the LITTLE CPU" (Section IV-A).
  double agent_little_util{0.02};
  SimTime record_period{SimTime::from_seconds(1.0)};
  /// Emergency thermal throttling (the SoC's hardware protection): when a
  /// junction sensor exceeds the limit the engine lowers a per-cluster
  /// frequency ceiling one OPP per evaluation; it relaxes again below
  /// (limit - hysteresis). Independent of (and beneath) governor caps.
  bool thermal_throttle{true};
  double throttle_limit_c{92.0};
  double throttle_hysteresis_c{7.0};
  SimTime throttle_period{SimTime::from_ms(100)};
};

/// Aggregate statistics accumulated every step (not just at record points).
struct EngineTotals {
  RunningStats power_w;
  RunningStats temp_big_c;
  RunningStats temp_device_c;
  double energy_j{0.0};
  std::int64_t frames_presented{0};
  std::int64_t frames_dropped{0};
};

class Engine {
 public:
  /// `meta_gov` may be null (stock configuration).
  Engine(soc::Soc soc, std::unique_ptr<workload::App> app,
         std::unique_ptr<governors::FreqGovernor> freq_gov,
         std::unique_ptr<governors::MetaGovernor> meta_gov, EngineConfig config = {});

  /// Runs for `duration` of simulated time.
  void run(SimTime duration);
  /// Executes exactly one engine step.
  void step();

  // The phases step() is made of, in order, so external drivers
  // (sim::execute()'s lock-step path) can interleave N engines per phase
  // while staying bit-identical to per-engine step():
  //   step_pre_power(); apply_power_model(); thermal().step(config().step);
  //   step_post_observe(); step_post_meta(); step_post_finish();

  /// Advances the app/render/load substrates one tick (no thermal or power
  /// reads - safe whether or not the session is batch-resident).
  void step_pre_power();
  /// Evaluates the power model against the engine's own RcNetwork and
  /// writes node powers back into it. Only valid detached; batch-resident
  /// sessions evaluate through soc::PowerBatch instead (push_power_inputs
  /// -> PowerBatch::evaluate -> set_device_power).
  void apply_power_model();
  /// Advances the clock, refreshes the observation and runs the sampled
  /// stream + kernel frequency governor; latches whether the meta governor
  /// is due this tick (meta_control_due()).
  void step_post_observe();
  /// True when step_post_observe() latched a meta-governor control point
  /// for the current tick. Cleared by step_post_meta() or
  /// skip_meta_control().
  [[nodiscard]] bool meta_control_due() const noexcept { return meta_due_; }
  /// Runs the meta governor's control step if due.
  void step_post_meta();
  /// Declares the due meta control handled externally (the batch driver
  /// runs NextAgent decisions as one group sweep instead).
  void skip_meta_control() noexcept { meta_due_ = false; }
  /// Thermal throttle, running totals and the recorder.
  void step_post_finish();

  /// --- batch residency -------------------------------------------------
  /// Parks this session's thermal state in `batch` lane `lane` (same
  /// topology pointer required): temperatures/powers/ambient move into the
  /// SoA lanes and the constant non-cluster node powers (display on skin,
  /// rest-of-device on soc_board) are written once - the serial pre phase
  /// rewrites those same values every tick, so once is equivalent. While
  /// attached, thermal() is stale; observation and throttle reads go to the
  /// lanes, and the driver owns the thermal step (RcBatch::step).
  void attach_thermal_batch(thermal::RcBatch& batch, std::size_t lane);
  /// Scatters lane temperatures back into the engine's own network and
  /// resumes self-contained stepping. No-op when detached.
  void detach_thermal_batch();
  [[nodiscard]] bool thermal_batch_attached() const noexcept { return batch_ != nullptr; }
  /// Pushes this tick's per-cluster OPP index + utilization into a
  /// PowerBatch lane (the batch-resident replacement for
  /// apply_power_model()'s input side).
  void push_power_inputs(soc::PowerBatch& batch, std::size_t lane) const;
  /// Adopts the externally evaluated device power (PowerBatch::device_power)
  /// that the observation's fuel gauge and energy totals consume.
  void set_device_power(Watts p) noexcept { device_power_ = p; }
  /// Thermal node feeding each cluster's junction sensor, in cluster order
  /// (what PowerBatch lanes must be wired to).
  [[nodiscard]] const std::array<thermal::NodeId, 3>& cluster_nodes() const noexcept {
    return cluster_node_;
  }
  /// The meta governor as a Next agent, or null when the session runs a
  /// different (or no) meta governor. Batch drivers use this to route
  /// control points through core::NextAgent::control_group.
  [[nodiscard]] core::NextAgent* next_agent() noexcept { return next_agent_; }

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] soc::Soc& soc() noexcept { return soc_; }
  [[nodiscard]] const soc::Soc& soc() const noexcept { return soc_; }
  [[nodiscard]] workload::App& app() noexcept { return *app_; }
  [[nodiscard]] governors::MetaGovernor* meta() noexcept { return meta_gov_.get(); }
  [[nodiscard]] const thermal::RcNetwork& thermal() const noexcept { return thermal_.network; }
  /// Mutable network access for drivers that run the thermal phase
  /// themselves.
  [[nodiscard]] thermal::RcNetwork& thermal() noexcept { return thermal_.network; }
  [[nodiscard]] const render::RenderPipeline& pipeline() const noexcept { return pipeline_; }
  [[nodiscard]] const Recorder& recorder() const noexcept { return recorder_; }
  [[nodiscard]] Recorder& recorder() noexcept { return recorder_; }
  [[nodiscard]] const EngineTotals& totals() const noexcept { return totals_; }
  /// The observation as the governor stack last saw it. The sensor block
  /// (temperatures, power) is refreshed every step; the FPS window queries
  /// and per-cluster DVFS snapshot are only refreshed on steps where a
  /// consumer (governor, meta sample, throttle evaluation, recorder) fires,
  /// so between those ticks they can lag by up to one governor period.
  /// External drivers that need the exact instantaneous FPS stream should
  /// query pipeline().current_fps(now()) directly.
  [[nodiscard]] const governors::Observation& observation() const noexcept { return obs_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

  /// Mean FPS over the whole run (presented frames / elapsed time).
  [[nodiscard]] double average_fps() const noexcept;

  /// Resets thermal state and pipeline for a fresh session while keeping
  /// learned governor state (used between training episodes).
  void reset_session(std::unique_ptr<workload::App> new_app);

 private:
  /// `force` refreshes every block regardless of consumer deadlines (used
  /// at construction and session reset so observation() never shows a
  /// previous session's values).
  void rebuild_observation(bool force = false);
  /// True when any observation consumer (governor, meta sample, throttle
  /// evaluation, recorder) fires at the current time. The expensive parts
  /// of the observation (FPS window queries, per-cluster DVFS snapshot) are
  /// only refreshed on those steps; the thermal/power sensor block is
  /// rebuilt every step because the running totals consume it.
  [[nodiscard]] bool observation_consumer_due() const noexcept;
  void update_loads(const render::PipelineStepResult& pr);
  void apply_thermal_throttle();
  void record_if_due();
  /// Node temperature from wherever the session's thermal state currently
  /// lives: the attached batch lane, or the engine's own network.
  [[nodiscard]] double node_temp(thermal::NodeId id) const noexcept;

  EngineConfig config_;
  soc::Soc soc_;
  thermal::Note9Thermal thermal_;
  render::RenderPipeline pipeline_;
  std::unique_ptr<workload::App> app_;
  std::unique_ptr<governors::FreqGovernor> freq_gov_;
  std::unique_ptr<governors::MetaGovernor> meta_gov_;
  /// meta_gov_ downcast once at construction; record_if_due() used to
  /// dynamic_cast on every sample, and batch drivers use it to group Next
  /// control points.
  core::NextAgent* next_agent_{nullptr};
  /// Thermal node feeding each cluster's junction sensor, in cluster order.
  std::array<thermal::NodeId, 3> cluster_node_{};
  /// Non-owning: the SoA thermal batch this session is parked in, if any.
  thermal::RcBatch* batch_{nullptr};
  std::size_t batch_lane_{0};
  /// Latched by step_post_observe() when the meta governor's control period
  /// elapses; consumed by step_post_meta() / skip_meta_control().
  bool meta_due_{false};

  SimTime now_{SimTime::zero()};
  SimTime next_freq_gov_{SimTime::zero()};
  SimTime next_meta_{SimTime::zero()};
  SimTime next_meta_sample_{SimTime::zero()};
  SimTime next_record_{SimTime::zero()};
  SimTime next_throttle_{SimTime::zero()};
  /// Governor cadences are constants; cached to keep virtual period()
  /// lookups out of the 1 ms step.
  SimTime meta_sample_period_{SimTime::zero()};
  std::vector<std::size_t> throttle_ceiling_;

  std::vector<soc::ClusterLoad> loads_;
  Watts device_power_{Watts{0.0}};
  governors::Observation obs_;
  Recorder recorder_;
  EngineTotals totals_;
};

}  // namespace nextgov::sim
