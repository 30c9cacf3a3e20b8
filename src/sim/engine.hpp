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
#include "soc/sensors.hpp"
#include "soc/soc.hpp"
#include "thermal/note9_model.hpp"
#include "workload/app.hpp"

namespace nextgov::core {
class NextAgent;
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

  // The phases step() is made of, in order, so external drivers can time
  // or interleave them while staying bit-identical to step() (perfbench's
  // phone_deploy steps them by hand; execute()'s phase timings lap them):
  //   step_pre_power(); apply_power_model(); thermal().step(config().step);
  //   step_post_observe(); step_post_meta(); step_post_finish();

  /// Advances the app/render/load substrates one tick (no thermal or power
  /// reads).
  void step_pre_power();
  /// Evaluates the power model against the engine's own RcNetwork and
  /// writes node powers back into it.
  void apply_power_model();
  /// Advances the clock, refreshes the observation and runs the sampled
  /// stream + kernel frequency governor; latches whether the meta governor
  /// is due this tick.
  void step_post_observe();
  /// Runs the meta governor's control step if step_post_observe() latched
  /// one for the current tick.
  void step_post_meta();
  /// Thermal throttle, running totals and the recorder.
  void step_post_finish();

  /// The meta governor as a Next agent, or null when the session runs a
  /// different (or no) meta governor.
  [[nodiscard]] core::NextAgent* next_agent() noexcept { return next_agent_; }

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] governors::MetaGovernor* meta() noexcept { return meta_gov_.get(); }
  /// Network access for drivers that run the thermal phase themselves.
  [[nodiscard]] thermal::RcNetwork& thermal() noexcept { return thermal_.network; }
  [[nodiscard]] const render::RenderPipeline& pipeline() const noexcept { return pipeline_; }
  [[nodiscard]] const Recorder& recorder() const noexcept { return recorder_; }
  [[nodiscard]] const EngineTotals& totals() const noexcept { return totals_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

  /// Mean FPS over the whole run (presented frames / elapsed time).
  [[nodiscard]] double average_fps() const noexcept;

  /// Resets thermal state and pipeline for a fresh session while keeping
  /// learned governor state (used between training episodes).
  void reset_session(std::unique_ptr<workload::App> new_app);

 private:
  /// `force` refreshes every block regardless of consumer deadlines (used
  /// at construction and session reset so the observation never shows a
  /// previous session's values).
  void rebuild_observation(bool force = false);
  /// True when any observation consumer (governor, meta sample, throttle
  /// evaluation, recorder) fires at the current time. The FPS window
  /// queries, the per-cluster DVFS snapshot and the power sensor are only
  /// refreshed on those steps; the temperature sensors are read every step
  /// because the running totals consume them.
  [[nodiscard]] bool observation_consumer_due() const noexcept;
  void update_loads(const render::PipelineStepResult& pr);
  void apply_thermal_throttle();
  void record_if_due();
  [[nodiscard]] double node_temp(thermal::NodeId id) const noexcept {
    return thermal_.network.temperatures_raw()[id];
  }

  EngineConfig config_;
  soc::Soc soc_;
  thermal::Note9Thermal thermal_;
  render::RenderPipeline pipeline_;
  std::unique_ptr<workload::App> app_;
  std::unique_ptr<governors::FreqGovernor> freq_gov_;
  std::unique_ptr<governors::MetaGovernor> meta_gov_;
  /// meta_gov_ downcast once at construction, so record_if_due() need not
  /// dynamic_cast on every sample.
  core::NextAgent* next_agent_{nullptr};
  /// Thermal node feeding each cluster's junction sensor, in cluster order.
  std::array<thermal::NodeId, 3> cluster_node_{};
  /// Latched by step_post_observe() when the meta governor's control period
  /// elapses; consumed by step_post_meta().
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
  /// big, LITTLE, GPU, battery and skin sensors, in SensorReadings order.
  std::array<soc::TemperatureSensor, 5> temp_sensors_{};
  Recorder recorder_;
  EngineTotals totals_;
};

}  // namespace nextgov::sim
