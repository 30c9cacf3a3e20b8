#include "sim/scenario.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <utility>

#include "common/error.hpp"
#include "workload/phased_app.hpp"

namespace nextgov::sim {

namespace {

/// Saturating overlay of burst demand on top of the app's own load.
workload::BackgroundLoad overlay(const workload::BackgroundLoad& base,
                                 const workload::BackgroundLoad& boost) noexcept {
  const auto cap = [](double v) { return std::min(1.0, v); };
  return {cap(base.big_avg + boost.big_avg), cap(base.big_hot + boost.big_hot),
          cap(base.little_avg + boost.little_avg), cap(base.little_hot + boost.little_hot),
          cap(base.gpu_avg + boost.gpu_avg)};
}

/// Decorator adding the scenario's periodic background bursts to any
/// workload. Burst timing is a pure function of simulated time (the last
/// `burst_length` of every `period`), so the decorated app inherits the
/// inner app's determinism.
class BurstyBackgroundApp final : public workload::App {
 public:
  BurstyBackgroundApp(std::unique_ptr<workload::App> inner, BackgroundBurst burst)
      : inner_{std::move(inner)}, burst_{burst} {
    require(burst_.period.us() > 0, "background burst period must be positive");
    require(burst_.burst_length.us() > 0 && burst_.burst_length.us() <= burst_.period.us(),
            "background burst length must be in (0, period]");
  }

  void update(SimTime now, SimTime dt) override {
    inner_->update(now, dt);
    const std::int64_t phase = now.us() % burst_.period.us();
    in_burst_ = phase >= burst_.period.us() - burst_.burst_length.us();
  }
  [[nodiscard]] bool wants_frame(SimTime now) override { return inner_->wants_frame(now); }
  [[nodiscard]] render::FrameJob begin_frame(SimTime now) override {
    return inner_->begin_frame(now);
  }
  [[nodiscard]] workload::BackgroundLoad background() const override {
    return in_burst_ ? overlay(inner_->background(), burst_.boost) : inner_->background();
  }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] std::string_view phase_name() const override {
    return in_burst_ ? "bg_burst" : inner_->phase_name();
  }

 private:
  std::unique_ptr<workload::App> inner_;
  BackgroundBurst burst_;
  bool in_burst_{false};
};

std::unique_ptr<workload::PhasedApp> make_phased(workload::AppId id,
                                                 const std::optional<workload::UserModelParams>& user,
                                                 std::uint64_t seed) {
  workload::AppSpec spec = workload::spec_for(id);
  if (user.has_value()) spec.user = *user;
  return std::make_unique<workload::PhasedApp>(std::move(spec), Rng{seed});
}

std::unique_ptr<workload::App> make_scenario_app(const ScenarioSpec& spec, std::uint64_t seed) {
  std::unique_ptr<workload::App> app;
  if (spec.segments.size() == 1) {
    // Mirrors workload::make_app() seeding so a one-segment scenario equals
    // the plain catalog app.
    app = make_phased(spec.segments.front().app, spec.user_override, seed);
  } else {
    // Mirrors SessionApp's own per-segment seed expansion so a scenario
    // without a user override equals SessionApp(segments, seed).
    SplitMix64 seeder{seed};
    std::vector<std::unique_ptr<workload::PhasedApp>> apps;
    apps.reserve(spec.segments.size());
    for (const auto& seg : spec.segments) {
      apps.push_back(make_phased(seg.app, spec.user_override, seeder.next()));
    }
    app = std::make_unique<workload::SessionApp>(spec.segments, std::move(apps));
  }
  if (spec.burst.enabled) {
    app = std::make_unique<BurstyBackgroundApp>(std::move(app), spec.burst);
  }
  return app;
}

std::string format_axis_value(double v) {
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), "%g", v);
  return std::string{buf.data()};
}

}  // namespace

SimTime ScenarioSpec::effective_duration() const noexcept {
  if (duration.us() > 0) return duration;
  SimTime total = SimTime::zero();
  for (const auto& seg : segments) total += seg.duration;
  return total;
}

AppFactory ScenarioSpec::app_factory() const {
  require(!segments.empty(), "scenario needs at least one segment");
  // Captured by value: the factory must stay pure and outlive the spec.
  ScenarioSpec copy = *this;
  return [copy = std::move(copy)](std::uint64_t seed) { return make_scenario_app(copy, seed); };
}

core::NextConfig adapt_next_config(core::NextConfig config, double refresh_hz,
                                   Celsius ambient) {
  config.ppdw_bounds.fps_max = std::max(config.ppdw_bounds.fps_max, refresh_hz);
  config.ppdw_bounds.ambient = ambient;
  return config;
}

ExperimentConfig ScenarioSpec::experiment_config(GovernorKind governor) const {
  return experiment_config(governor, base_seed);
}

ExperimentConfig ScenarioSpec::experiment_config(GovernorKind governor,
                                                 std::uint64_t seed) const {
  ExperimentConfig cfg;
  cfg.governor = governor;
  cfg.duration = effective_duration();
  cfg.seed = seed;
  cfg.ambient = ambient;
  cfg.refresh_hz = refresh_hz;
  cfg.record_period = record_period;
  cfg.next_config = adapt_next_config(cfg.next_config, refresh_hz, ambient);
  return cfg;
}

TrainingOptions ScenarioSpec::training_options(const TrainingOptions& base) const {
  TrainingOptions opts = base;
  opts.seed = base_seed;
  opts.ambient = ambient;
  opts.refresh_hz = refresh_hz;
  return opts;
}

// --- library ----------------------------------------------------------------

namespace {

ScenarioSpec fig1_session_spec() {
  ScenarioSpec s;
  s.name = "fig1_session";
  s.segments = {{workload::AppId::kHome, SimTime::from_seconds(30.0)},
                {workload::AppId::kFacebook, SimTime::from_seconds(120.0)},
                {workload::AppId::kSpotify, SimTime::from_seconds(130.0)}};
  s.base_seed = 1;
  return s;
}

ScenarioSpec fig1_variant(std::string name, double refresh_hz, double ambient_c) {
  ScenarioSpec s = fig1_session_spec();
  s.name = std::move(name);
  s.refresh_hz = refresh_hz;
  s.ambient = Celsius{ambient_c};
  return s;
}

ScenarioSpec social_gaming_spec() {
  // A gaming break inside a social session: the agent must survive the
  // social -> game thermal ramp and the game -> video cool-down, with two
  // app-launch FPS collapses mid-session.
  ScenarioSpec s;
  s.name = "social_gaming";
  s.segments = {{workload::AppId::kFacebook, SimTime::from_seconds(60.0)},
                {workload::AppId::kLineage, SimTime::from_seconds(150.0)},
                {workload::AppId::kYoutube, SimTime::from_seconds(60.0)}};
  s.base_seed = 11;
  return s;
}

ScenarioSpec commute_media_spec() {
  // The commute pattern: browse, then a long video, then screen-off-style
  // music - ending in the paper's Fig. 1 waste case (FPS ~0, CPUs warm).
  ScenarioSpec s;
  s.name = "commute_media";
  s.segments = {{workload::AppId::kWebBrowser, SimTime::from_seconds(60.0)},
                {workload::AppId::kYoutube, SimTime::from_seconds(120.0)},
                {workload::AppId::kSpotify, SimTime::from_seconds(90.0)}};
  s.base_seed = 12;
  return s;
}

ScenarioSpec binge_watch_spec() {
  // YouTube with an almost fully passive user: engagement bursts are rare
  // and short, so the 30 FPS cadence dominates and interactive seeking is
  // scarce - the user-model override axis of the scenario system.
  ScenarioSpec s;
  s.name = "binge_watch";
  s.segments = {{workload::AppId::kYoutube, SimTime::from_seconds(240.0)}};
  s.base_seed = 13;
  workload::UserModelParams user;
  user.engaged_mean_s = 2.0;
  user.engaged_sigma = 0.5;
  user.passive_mean_s = 45.0;
  user.passive_sigma = 0.6;
  user.start_engaged = true;
  s.user_override = user;
  return s;
}

ScenarioSpec spotify_bursty_spec() {
  // Spotify plus periodic heavy background bursts (library sync, podcast
  // prefetch): a utilization governor sees saturation spikes with zero
  // frames - the hardest version of the paper's Spotify waste case.
  ScenarioSpec s;
  s.name = "spotify_bursty";
  s.segments = {{workload::AppId::kSpotify, SimTime::from_seconds(150.0)}};
  s.base_seed = 14;
  s.burst.enabled = true;
  s.burst.period = SimTime::from_seconds(25.0);
  s.burst.burst_length = SimTime::from_seconds(5.0);
  s.burst.boost = {.big_avg = 0.45, .big_hot = 0.9, .little_avg = 0.35,
                   .little_hot = 0.7, .gpu_avg = 0.0};
  return s;
}

ScenarioSpec pubg_hot35_spec() {
  // Worst-case thermals: a sustained heavy game in a 35 C room (Section V's
  // upper ambient). Exercises the emergency throttle path.
  ScenarioSpec s;
  s.name = "pubg_hot35";
  s.segments = {{workload::AppId::kPubg, SimTime::from_seconds(300.0)}};
  s.ambient = Celsius{35.0};
  s.base_seed = 15;
  return s;
}

ScenarioSpec lineage_120hz_spec() {
  // A heavy game on a 120 Hz panel: the VSync ceiling doubles, so the
  // CPU/GPU cost per wall-second roughly doubles where the game can keep up.
  ScenarioSpec s;
  s.name = "lineage_120hz";
  s.segments = {{workload::AppId::kLineage, SimTime::from_seconds(300.0)}};
  s.refresh_hz = 120.0;
  s.base_seed = 16;
  return s;
}

using ScenarioFactory = ScenarioSpec (*)();

struct LibraryEntry {
  std::string_view name;
  std::string_view description;
  ScenarioFactory make;
};

constexpr std::size_t kLibrarySize = 12;

const std::array<LibraryEntry, kLibrarySize>& library() {
  static const std::array<LibraryEntry, kLibrarySize> kLibrary{{
      {"fig1_session", "the paper's Fig. 1 walk: home -> Facebook -> Spotify at 60 Hz, 21 C",
       +[] { return fig1_session_spec(); }},
      {"fig1_session_90hz", "Fig. 1 session on a 90 Hz panel",
       +[] { return fig1_variant("fig1_session_90hz", 90.0, 21.0); }},
      {"fig1_session_120hz", "Fig. 1 session on a 120 Hz panel",
       +[] { return fig1_variant("fig1_session_120hz", 120.0, 21.0); }},
      {"fig1_session_15c", "Fig. 1 session in a 15 C room (Section V's lower ambient)",
       +[] { return fig1_variant("fig1_session_15c", 60.0, 15.0); }},
      {"fig1_session_25c", "Fig. 1 session in a 25 C room",
       +[] { return fig1_variant("fig1_session_25c", 60.0, 25.0); }},
      {"fig1_session_35c", "Fig. 1 session in a 35 C room (Section V's upper ambient)",
       +[] { return fig1_variant("fig1_session_35c", 60.0, 35.0); }},
      {"social_gaming", "a gaming break inside a social session (thermal ramp + cool-down)",
       +[] { return social_gaming_spec(); }},
      {"commute_media", "browse, long video, then screen-off-style music (Fig. 1 waste case)",
       +[] { return commute_media_spec(); }},
      {"binge_watch", "YouTube with an almost fully passive user (user-model override)",
       +[] { return binge_watch_spec(); }},
      {"spotify_bursty", "Spotify plus periodic heavy background bursts at near-zero FPS",
       +[] { return spotify_bursty_spec(); }},
      {"pubg_hot35", "sustained heavy game in a 35 C room (emergency-throttle stress)",
       +[] { return pubg_hot35_spec(); }},
      {"lineage_120hz", "heavy game on a 120 Hz panel (doubled VSync ceiling)",
       +[] { return lineage_120hz_spec(); }},
  }};
  return kLibrary;
}

}  // namespace

std::span<const std::string_view> scenario_names() {
  static const std::array<std::string_view, kLibrarySize> kNames = [] {
    std::array<std::string_view, kLibrarySize> names{};
    for (std::size_t i = 0; i < kLibrarySize; ++i) names[i] = library()[i].name;
    return names;
  }();
  return kNames;
}

std::string_view scenario_description(std::string_view name) {
  for (const auto& entry : library()) {
    if (entry.name == name) return entry.description;
  }
  throw ConfigError("unknown scenario '" + std::string{name} + "'");
}

ScenarioSpec scenario(std::string_view name) {
  for (const auto& entry : library()) {
    if (entry.name == name) return entry.make();
  }
  std::string known;
  for (const auto& entry : library()) {
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  throw ConfigError("unknown scenario '" + std::string{name} + "' (library: " + known + ")");
}

ScenarioSpec app_scenario(workload::AppId app) {
  ScenarioSpec s;
  s.name = std::string{workload::to_string(app)};
  s.segments = {{app, workload::paper_session_length(app)}};
  return s;
}

// --- matrix -----------------------------------------------------------------

ScenarioMatrix& ScenarioMatrix::add(ScenarioSpec spec) {
  require(!spec.segments.empty(), "matrix scenario needs at least one segment");
  scenarios_.push_back(std::move(spec));
  return *this;
}

ScenarioMatrix& ScenarioMatrix::add(std::string_view library_name) {
  return add(scenario(library_name));
}

ScenarioMatrix& ScenarioMatrix::ambients(std::vector<double> celsius) {
  ambients_ = std::move(celsius);
  return *this;
}

ScenarioMatrix& ScenarioMatrix::refresh_rates(std::vector<double> hz) {
  for (double v : hz) require(v > 0.0, "refresh rate must be positive");
  refresh_rates_ = std::move(hz);
  return *this;
}

ScenarioMatrix& ScenarioMatrix::seeds(std::size_t count) {
  require(count >= 1, "matrix needs at least one seed per cell");
  seeds_ = count;
  return *this;
}

std::size_t ScenarioMatrix::size() const noexcept {
  const std::size_t a = std::max<std::size_t>(1, ambients_.size());
  const std::size_t r = std::max<std::size_t>(1, refresh_rates_.size());
  return scenarios_.size() * a * r * seeds_;
}

std::vector<ScenarioCell> ScenarioMatrix::expand() const {
  std::vector<ScenarioCell> cells;
  cells.reserve(size());
  const std::size_t ambient_count = std::max<std::size_t>(1, ambients_.size());
  const std::size_t refresh_count = std::max<std::size_t>(1, refresh_rates_.size());
  for (std::size_t si = 0; si < scenarios_.size(); ++si) {
    const ScenarioSpec& base = scenarios_[si];
    for (std::size_t ai = 0; ai < ambient_count; ++ai) {
      for (std::size_t ri = 0; ri < refresh_count; ++ri) {
        for (std::size_t ki = 0; ki < seeds_; ++ki) {
          ScenarioCell cell;
          cell.spec = base;
          cell.scenario_index = si;
          cell.ambient_index = ai;
          cell.refresh_index = ri;
          cell.seed_index = ki;
          if (!ambients_.empty()) cell.spec.ambient = Celsius{ambients_[ai]};
          if (!refresh_rates_.empty()) cell.spec.refresh_hz = refresh_rates_[ri];
          if (ki > 0) cell.spec.base_seed = derive_seed(base.base_seed, ki);
          cell.spec.name = base.name + "@" + format_axis_value(cell.spec.ambient.value()) +
                           "C@" + format_axis_value(cell.spec.refresh_hz) + "Hz#s" +
                           std::to_string(ki);
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  return cells;
}

std::size_t ScenarioMatrix::append_to(RunPlan& plan, GovernorKind governor) const {
  return append_cells(plan, expand(), governor);
}

RunPlan ScenarioMatrix::to_run_plan(GovernorKind governor) const {
  RunPlan plan;
  append_to(plan, governor);
  return plan;
}

std::size_t ScenarioMatrix::append_to(TrainingPlan& plan, const core::NextConfig& config,
                                      const TrainingOptions& base) const {
  return append_cells(plan, expand(), config, base);
}

std::size_t append_cells(RunPlan& plan, std::span<const ScenarioCell> cells,
                         GovernorKind governor) {
  for (const auto& cell : cells) {
    plan.add(cell.spec.app_factory(), cell.spec.name,
             cell.spec.experiment_config(governor));
  }
  return cells.size();
}

std::size_t append_cells(TrainingPlan& plan, std::span<const ScenarioCell> cells,
                         const core::NextConfig& config, const TrainingOptions& base) {
  for (const auto& cell : cells) {
    plan.add(cell.spec.app_factory(), cell.spec.name,
             adapt_next_config(config, cell.spec.refresh_hz, cell.spec.ambient),
             cell.spec.training_options(base));
  }
  return cells.size();
}

}  // namespace nextgov::sim
