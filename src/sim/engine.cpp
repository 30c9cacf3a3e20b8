#include "sim/engine.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"
#include "core/next_agent.hpp"
#include "core/ppdw.hpp"
#include "soc/power_model.hpp"
#include "soc/sensors.hpp"

namespace nextgov::sim {

Engine::Engine(soc::Soc soc, std::unique_ptr<workload::App> app,
               std::unique_ptr<governors::FreqGovernor> freq_gov,
               std::unique_ptr<governors::MetaGovernor> meta_gov, EngineConfig config)
    : config_{config},
      soc_{std::move(soc)},
      thermal_{thermal::make_note9_thermal(config.ambient)},
      pipeline_{render::PipelineConfig{.refresh_hz = config.refresh_hz, .back_buffers = 2}},
      app_{std::move(app)},
      freq_gov_{std::move(freq_gov)},
      meta_gov_{std::move(meta_gov)},
      recorder_{config.record_period} {
  require(app_ != nullptr, "engine needs an app");
  require(freq_gov_ != nullptr, "engine needs a frequency governor");
  require(config_.step.us() > 0, "engine step must be positive");
  loads_.assign(soc_.cluster_count(), soc::ClusterLoad{});
  obs_.clusters.resize(soc_.cluster_count());
  soc_.reset();
  for (const auto& c : soc_.clusters()) throttle_ceiling_.push_back(c.opps().size() - 1);
  next_agent_ = dynamic_cast<core::NextAgent*>(meta_gov_.get());
  if (meta_gov_ != nullptr) meta_sample_period_ = meta_gov_->sample_period();
  cluster_node_ = {thermal_.nodes.big, thermal_.nodes.little, thermal_.nodes.gpu};
  rebuild_observation(/*force=*/true);
}

void Engine::apply_thermal_throttle() {
  if (!config_.thermal_throttle) return;
  if (now_ >= next_throttle_) {
    next_throttle_ = now_ + config_.throttle_period;
    const std::array<double, 3> junction{obs_.sensors.big.value(), obs_.sensors.little.value(),
                                         obs_.sensors.gpu.value()};
    for (std::size_t i = 0; i < soc_.cluster_count(); ++i) {
      if (junction[i] > config_.throttle_limit_c) {
        if (throttle_ceiling_[i] > 0) --throttle_ceiling_[i];
      } else if (junction[i] < config_.throttle_limit_c - config_.throttle_hysteresis_c) {
        const std::size_t top = soc_.cluster(i).opps().size() - 1;
        if (throttle_ceiling_[i] < top) ++throttle_ceiling_[i];
      }
    }
  }
  // Clamp every step: governors are the usual movers, but the public soc()
  // accessor lets external drivers change operating points between steps
  // too, and the scan is three compares.
  for (std::size_t i = 0; i < soc_.cluster_count(); ++i) {
    auto& c = soc_.cluster(i);
    if (c.freq_index() > throttle_ceiling_[i]) c.set_freq_index(throttle_ceiling_[i]);
  }
}

void Engine::update_loads(const render::PipelineStepResult& pr) {
  const double dt_s = config_.step.seconds();
  const auto& bg = app_->background();

  // Background demand is specified at the highest OPP; at lower clocks the
  // same work occupies proportionally more time (PELT-style scaling).
  const auto scaled = [](double demand, const soc::Cluster& c) {
    return std::min(1.0, demand * c.inv_relative_speed());
  };

  const auto& big = soc_.big();
  const double render_busy = std::min(1.0, pr.cpu_busy_seconds / dt_s);
  // The render thread and the hottest background thread can land on the
  // same core; summing (capped) is the conservative-hot choice PELT's
  // per-CPU max tracking approximates.
  loads_[soc::ClusterIndex::kBig].busy_hot =
      std::min(1.0, render_busy + scaled(bg.big_hot, big));
  loads_[soc::ClusterIndex::kBig].busy_avg = std::min(
      1.0, render_busy / static_cast<double>(big.core_count()) + scaled(bg.big_avg, big));

  const auto& little = soc_.little();
  const double agent_util = meta_gov_ ? config_.agent_little_util : 0.0;
  loads_[soc::ClusterIndex::kLittle].busy_hot =
      std::min(1.0, scaled(bg.little_hot, little) + agent_util);
  loads_[soc::ClusterIndex::kLittle].busy_avg =
      std::min(1.0, scaled(bg.little_avg, little) +
                        agent_util / static_cast<double>(little.core_count()));

  const auto& gpu = soc_.gpu();
  const double gpu_busy =
      std::min(1.0, pr.gpu_busy_seconds / dt_s + scaled(bg.gpu_avg, gpu));
  loads_[soc::ClusterIndex::kGpu].busy_hot = gpu_busy;
  loads_[soc::ClusterIndex::kGpu].busy_avg = gpu_busy;
}

bool Engine::observation_consumer_due() const noexcept {
  if (now_ >= next_freq_gov_ || now_ >= next_record_) return true;
  if (config_.thermal_throttle && now_ >= next_throttle_) return true;
  if (meta_gov_ != nullptr) {
    if (now_ >= next_meta_) return true;
    if (meta_sample_period_.us() > 0 && now_ >= next_meta_sample_) return true;
  }
  return false;
}

void Engine::rebuild_observation(bool force) {
  obs_.now = now_;
  if (force || observation_consumer_due()) {
    for (std::size_t i = 0; i < soc_.cluster_count(); ++i) {
      const auto& c = soc_.cluster(i);
      auto& o = obs_.clusters[i];
      o.freq_index = c.freq_index();
      o.cap_index = c.max_cap_index();
      o.opp_count = c.opps().size();
      o.frequency = c.frequency();
      o.max_frequency = c.opps().highest().frequency;
      o.busy_hot = loads_[i].busy_hot;
      o.busy_avg = loads_[i].busy_avg;
    }
    obs_.fps = pipeline_.current_fps(now_);
    obs_.drop_rate = pipeline_.current_drop_rate(now_);
  }

  const auto& nodes = thermal_.nodes;
  const Celsius t_big = soc::quantize_temperature(Celsius{node_temp(nodes.big)});
  const Celsius t_little = soc::quantize_temperature(Celsius{node_temp(nodes.little)});
  const Celsius t_gpu = soc::quantize_temperature(Celsius{node_temp(nodes.gpu)});
  const Celsius t_batt = soc::quantize_temperature(Celsius{node_temp(nodes.battery)});
  const Celsius t_skin = soc::quantize_temperature(Celsius{node_temp(nodes.skin)});
  obs_.sensors.big = t_big;
  obs_.sensors.little = t_little;
  obs_.sensors.gpu = t_gpu;
  obs_.sensors.battery = t_batt;
  obs_.sensors.skin = t_skin;
  obs_.sensors.device =
      soc::quantize_temperature(soc::virtual_device_temperature(t_batt, t_skin, t_big, t_little, t_gpu));
  obs_.sensors.power = soc::quantize_power(device_power_);
}

void Engine::record_if_due() {
  if (now_ < next_record_) return;
  next_record_ = now_ + recorder_.period();

  Sample s;
  s.time_s = now_.seconds();
  s.fps = obs_.fps.value();
  if (next_agent_ != nullptr) s.target_fps = next_agent_->current_target_fps();
  s.f_big_mhz = soc_.big().frequency().mhz();
  s.f_little_mhz = soc_.little().frequency().mhz();
  s.f_gpu_mhz = soc_.gpu().frequency().mhz();
  s.cap_big_mhz = soc_.big().max_cap_frequency().mhz();
  s.cap_little_mhz = soc_.little().max_cap_frequency().mhz();
  s.cap_gpu_mhz = soc_.gpu().max_cap_frequency().mhz();
  s.power_w = obs_.sensors.power.value();
  s.temp_big_c = obs_.sensors.big.value();
  s.temp_little_c = obs_.sensors.little.value();
  s.temp_gpu_c = obs_.sensors.gpu.value();
  s.temp_device_c = obs_.sensors.device.value();
  s.temp_skin_c = obs_.sensors.skin.value();
  s.ppdw = core::ppdw(s.fps, Watts{s.power_w}, Celsius{s.temp_big_c}, config_.ambient);
  recorder_.add(s);
}

void Engine::step_pre_power() {
  // 1. app behaviour advances.
  app_->update(now_, config_.step);

  // 2. frames execute at the current operating points.
  const auto pr = pipeline_.step(now_, config_.step, soc_.big().frequency().hz(),
                                 soc_.gpu().frequency().hz(), *app_);
  totals_.frames_presented += pr.frames_presented;
  totals_.frames_dropped += pr.frames_dropped;
  update_loads(pr);
}

void Engine::apply_power_model() {
  // 3. utilization -> power, injected into the network for the solve.
  auto& net = thermal_.network;
  Watts soc_power{0.0};
  for (std::size_t i = 0; i < soc_.cluster_count(); ++i) {
    const Celsius junction = net.temperature(cluster_node_[i]);
    const Watts p = soc::cluster_power(soc_.cluster(i), loads_[i], junction);
    net.set_power(cluster_node_[i], p);
    soc_power += p;
  }
  const auto& device = soc_.device_power();
  device_power_ = soc_power + device.display + device.rest_of_device;
  net.set_power(thermal_.nodes.skin, device.display);
  net.set_power(thermal_.nodes.soc_board, device.rest_of_device);
}

void Engine::step_post_observe() {
  now_ += config_.step;

  // 5. sensors + sampled stream + kernel governor. The meta governor's
  // control point is only latched here; running it is its own phase.
  rebuild_observation();
  if (meta_gov_ != nullptr) {
    if (meta_sample_period_.us() > 0 && now_ >= next_meta_sample_) {
      meta_gov_->on_sample(obs_);
      next_meta_sample_ = now_ + meta_sample_period_;
    }
  }
  if (now_ >= next_freq_gov_) {
    freq_gov_->control(obs_, soc_);
    next_freq_gov_ = now_ + freq_gov_->period();
  }
  if (meta_gov_ != nullptr && now_ >= next_meta_) {
    meta_due_ = true;
    next_meta_ = now_ + meta_gov_->period();
  }
}

void Engine::step_post_meta() {
  if (!meta_due_) return;
  meta_due_ = false;
  meta_gov_->control(obs_, soc_);
}

void Engine::step_post_finish() {
  apply_thermal_throttle();

  // 6. bookkeeping.
  totals_.power_w.add(device_power_.value());
  totals_.temp_big_c.add(obs_.sensors.big.value());
  totals_.temp_device_c.add(obs_.sensors.device.value());
  totals_.energy_j += device_power_.value() * config_.step.seconds();
  record_if_due();
}

void Engine::step() {
  step_pre_power();
  apply_power_model();
  // 4. heat flows.
  thermal_.network.step(config_.step);
  step_post_observe();
  step_post_meta();
  step_post_finish();
}

void Engine::run(SimTime duration) {
  const SimTime end = now_ + duration;
  while (now_ < end) step();
}

double Engine::average_fps() const noexcept {
  const double elapsed = now_.seconds();
  return elapsed > 0.0 ? static_cast<double>(totals_.frames_presented) / elapsed : 0.0;
}

void Engine::reset_session(std::unique_ptr<workload::App> new_app) {
  require(new_app != nullptr, "reset_session needs an app");
  app_ = std::move(new_app);
  pipeline_.reset(now_);
  thermal_.network.set_all_temperatures(config_.ambient);
  soc_.reset();
  freq_gov_->reset();
  if (meta_gov_) meta_gov_->reset();
  totals_ = EngineTotals{};
  meta_due_ = false;
  for (std::size_t i = 0; i < soc_.cluster_count(); ++i) {
    throttle_ceiling_[i] = soc_.cluster(i).opps().size() - 1;
  }
  rebuild_observation(/*force=*/true);
}

}  // namespace nextgov::sim
