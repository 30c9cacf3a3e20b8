#include "sim/experiment.hpp"

#include <cstring>

#include "common/error.hpp"
#include "governors/intqos.hpp"
#include "governors/schedutil.hpp"
#include "governors/simple_governors.hpp"
#include "sim/runner.hpp"

namespace nextgov::sim {

std::string_view to_string(GovernorKind kind) noexcept {
  switch (kind) {
    case GovernorKind::kSchedutil: return "schedutil";
    case GovernorKind::kPerformance: return "performance";
    case GovernorKind::kPowersave: return "powersave";
    case GovernorKind::kOndemand: return "ondemand";
    case GovernorKind::kIntQos: return "intqos";
    case GovernorKind::kNext: return "next";
  }
  return "?";
}

namespace {

std::unique_ptr<governors::FreqGovernor> make_freq_governor(GovernorKind kind) {
  switch (kind) {
    case GovernorKind::kPerformance: return std::make_unique<governors::PerformanceGovernor>();
    case GovernorKind::kPowersave: return std::make_unique<governors::PowersaveGovernor>();
    case GovernorKind::kOndemand: return std::make_unique<governors::OndemandGovernor>();
    // schedutil underlies the stock config and both meta governors.
    case GovernorKind::kSchedutil:
    case GovernorKind::kIntQos:
    case GovernorKind::kNext: return std::make_unique<governors::SchedutilGovernor>();
  }
  throw ConfigError("unknown governor kind");
}

std::unique_ptr<governors::MetaGovernor> make_meta_governor(const ExperimentConfig& config,
                                                            const soc::Soc& soc) {
  switch (config.governor) {
    case GovernorKind::kIntQos: return std::make_unique<governors::IntQosGovernor>();
    case GovernorKind::kNext: {
      auto agent = core::make_next_agent(soc, config.next_config, config.seed ^ 0xa9e27);
      if (config.trained_table != nullptr) {
        agent->set_q_table(*config.trained_table);
        agent->set_mode(core::AgentMode::kDeployed);
      } else {
        agent->set_mode(config.next_mode);
      }
      return agent;
    }
    default: return nullptr;
  }
}

}  // namespace

std::unique_ptr<Engine> make_engine(AppFactory app_factory, const ExperimentConfig& config) {
  require(static_cast<bool>(app_factory), "make_engine needs an app factory");
  auto soc = soc::make_exynos9810();
  auto meta = make_meta_governor(config, soc);
  EngineConfig engine_config;
  engine_config.ambient = config.ambient;
  engine_config.refresh_hz = config.refresh_hz;
  engine_config.record_period = config.record_period;
  return std::make_unique<Engine>(std::move(soc), app_factory(config.seed),
                                  make_freq_governor(config.governor), std::move(meta),
                                  engine_config);
}

SessionResult summarize(const Engine& engine, std::string app_name, std::string governor_name) {
  SessionResult r;
  r.app = std::move(app_name);
  r.governor = std::move(governor_name);
  r.duration_s = engine.now().seconds();
  const auto& totals = engine.totals();
  r.avg_power_w = totals.power_w.mean();
  r.peak_power_w = totals.power_w.max();
  r.avg_temp_big_c = totals.temp_big_c.mean();
  r.peak_temp_big_c = totals.temp_big_c.max();
  r.avg_temp_device_c = totals.temp_device_c.mean();
  r.peak_temp_device_c = totals.temp_device_c.max();
  r.avg_fps = engine.average_fps();
  r.energy_j = totals.energy_j;
  r.frames_presented = totals.frames_presented;
  r.frames_dropped = totals.frames_dropped;
  const auto ppdw_series = engine.recorder().column(&Sample::ppdw);
  r.avg_ppdw = mean_of(ppdw_series);
  r.series = engine.recorder().samples();
  return r;
}

bool bit_identical(const SessionResult& a, const SessionResult& b) noexcept {
  if (a.app != b.app || a.governor != b.governor || a.duration_s != b.duration_s ||
      a.avg_power_w != b.avg_power_w || a.peak_power_w != b.peak_power_w ||
      a.avg_temp_big_c != b.avg_temp_big_c || a.peak_temp_big_c != b.peak_temp_big_c ||
      a.avg_temp_device_c != b.avg_temp_device_c ||
      a.peak_temp_device_c != b.peak_temp_device_c || a.avg_fps != b.avg_fps ||
      a.energy_j != b.energy_j || a.frames_presented != b.frames_presented ||
      a.frames_dropped != b.frames_dropped || a.avg_ppdw != b.avg_ppdw ||
      a.series.size() != b.series.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    if (std::memcmp(&a.series[i], &b.series[i], sizeof(Sample)) != 0) return false;
  }
  return true;
}

SessionResult run_session(AppFactory app_factory, std::string app_name,
                          const ExperimentConfig& config) {
  auto engine = make_engine(std::move(app_factory), config);
  engine->run(config.duration);
  return summarize(*engine, std::move(app_name), std::string{to_string(config.governor)});
}

SessionResult run_app_session(workload::AppId app, const ExperimentConfig& config) {
  return run_session(
      [app](std::uint64_t seed) { return workload::make_app(app, seed); },
      std::string{workload::to_string(app)}, config);
}

TrainingResult train_next_on(AppFactory app_factory, const core::NextConfig& config,
                             const TrainingOptions& options) {
  require(static_cast<bool>(app_factory), "train_next_on needs an app factory");
  TrainingPlan plan;
  plan.add(std::move(app_factory), "", config, options);
  return std::move(execute(plan, {.workers = 1}).front());
}

TrainingResult train_next(workload::AppId app, const core::NextConfig& config,
                          const TrainingOptions& options) {
  return train_next_on([app](std::uint64_t seed) { return workload::make_app(app, seed); },
                       config, options);
}

}  // namespace nextgov::sim
