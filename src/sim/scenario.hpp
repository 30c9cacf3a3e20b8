// scenario.hpp - declarative scenarios and the scenario matrix.
//
// The paper evaluates Next on one canonical session (Fig. 1's home ->
// Facebook -> Spotify walk) at 60 Hz in a thermostat-controlled 21 C room.
// Section V notes real ambients span 15-35 C and Section I calls out 90 and
// 120 Hz panels; a DVFS agent has to be validated across those operating
// points, not at one. A ScenarioSpec names one complete operating point:
// the workload (single app or a multi-app interleaving with optional
// user-model override and background-load bursts), the panel refresh rate,
// the ambient temperature, the session duration and the seed policy.
//
// ScenarioMatrix cross-products scenarios with ambient / refresh / seed
// axes and expands directly into the existing RunPlan / TrainingPlan, so a
// whole matrix runs through execute(matrix.to_run_plan(governor), ...)
// bit-identically to serial execution (each cell is a pure function of its
// resolved spec).
//
// A curated library of named scenarios (scenario_names() / scenario())
// is the single source of truth for every bench and test session setup;
// tests/sim/scenario_golden_test.cpp pins the library's behaviour with
// checked-in fingerprints.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/runner.hpp"
#include "workload/background.hpp"
#include "workload/session.hpp"
#include "workload/user_model.hpp"

namespace nextgov::sim {

/// One workload segment: `app` runs for `duration`, then the session
/// switches to the next segment (re-entering that app's splash phase,
/// modelling launch cost). Exactly workload::SessionSegment - scenarios
/// feed SessionApp directly.
using ScenarioSegment = workload::SessionSegment;

/// Periodic background-load bursts layered over the workload: sync jobs,
/// prefetchers, push-triggered wakeups - the "sporadic tasks" of the
/// paper's Section I that render no frames but saturate utilization
/// governors. Each period ends with `burst_length` of extra background
/// demand (`boost`, added on top of the app's own load, capped at 1.0).
/// Purely a function of simulated time, so scenarios stay deterministic.
struct BackgroundBurst {
  bool enabled{false};
  SimTime period{SimTime::from_seconds(20.0)};
  SimTime burst_length{SimTime::from_seconds(4.0)};
  workload::BackgroundLoad boost{};
};

/// A complete, self-contained description of one evaluation operating
/// point. Everything an engine needs flows from here; nothing is hand-set
/// at call sites.
struct ScenarioSpec {
  std::string name;
  std::vector<ScenarioSegment> segments;  ///< >= 1; single entry = one app
  double refresh_hz{60.0};
  Celsius ambient{Celsius{21.0}};
  /// Default seed; matrix seed axes derive per-cell seeds from it (index 0
  /// is base_seed itself, index i > 0 is derive_seed(base_seed, i)).
  std::uint64_t base_seed{1};
  /// Zero = sum of the segment durations.
  SimTime duration{SimTime::zero()};
  SimTime record_period{SimTime::from_seconds(1.0)};
  /// Replaces every segment app's user-engagement parameters (e.g. a
  /// binge-watching variant of a normally interactive app).
  std::optional<workload::UserModelParams> user_override;
  BackgroundBurst burst{};

  [[nodiscard]] SimTime effective_duration() const noexcept;

  /// Pure factory for the scenario's workload (runner determinism
  /// contract: everything derives from the seed argument).
  [[nodiscard]] AppFactory app_factory() const;

  /// ExperimentConfig with the scenario's duration / ambient / refresh /
  /// record period and seed substituted; `next_config` is additionally
  /// adapted via adapt_next_config() so kNext cells stay calibrated on
  /// non-paper panels and ambients.
  [[nodiscard]] ExperimentConfig experiment_config(GovernorKind governor) const;
  [[nodiscard]] ExperimentConfig experiment_config(GovernorKind governor,
                                                   std::uint64_t seed) const;

  /// TrainingOptions with the scenario's seed / ambient / refresh
  /// substituted into `base` (budget, episode length etc. are kept).
  [[nodiscard]] TrainingOptions training_options(const TrainingOptions& base) const;
};

/// Recalibrates a NextConfig for a scenario's operating point: the QoS
/// ceiling follows the panel (fps_max >= refresh_hz) and the PPDW reward
/// bounds use the scenario's ambient instead of the paper's 21 C.
[[nodiscard]] core::NextConfig adapt_next_config(core::NextConfig config,
                                                 double refresh_hz, Celsius ambient);

// --- the curated scenario library -----------------------------------------

/// Names of every library scenario, in stable order (golden tests iterate
/// this). Currently: the Fig. 1 session, its 90/120 Hz panel variants, its
/// 15/25/35 C ambient variants, two multi-app interleavings beyond Fig. 1
/// (social_gaming, commute_media), a passive binge_watch user-model
/// variant, a bursty background-load Spotify, and two single-app stress
/// points (pubg_hot35, lineage_120hz).
[[nodiscard]] std::span<const std::string_view> scenario_names();

/// Looks a library scenario up by name; throws ConfigError for unknown
/// names (listing the library).
[[nodiscard]] ScenarioSpec scenario(std::string_view name);

/// One-line human description of a library scenario (what session_player
/// --list prints); throws ConfigError for unknown names.
[[nodiscard]] std::string_view scenario_description(std::string_view name);

/// Single-app scenario at the paper's session length for the app (games
/// 5 min, others 150 s), 60 Hz, 21 C. The figure benches' per-app sweeps
/// build on this.
[[nodiscard]] ScenarioSpec app_scenario(workload::AppId app);

// --- the matrix ------------------------------------------------------------

/// One expanded cell: the fully resolved spec (ambient / refresh / seed
/// substituted, name suffixed with the axis values) plus its coordinates.
struct ScenarioCell {
  ScenarioSpec spec;
  std::size_t scenario_index{0};
  std::size_t ambient_index{0};
  std::size_t refresh_index{0};
  std::size_t seed_index{0};
};

/// Cross product of scenarios x ambients x refresh rates x seeds. Axes
/// left unset keep each scenario's own value (a one-point axis). Expansion
/// is deterministic: the same matrix always yields the same cells in the
/// same order, regardless of worker counts downstream.
class ScenarioMatrix {
 public:
  ScenarioMatrix& add(ScenarioSpec spec);
  ScenarioMatrix& add(std::string_view library_name);
  ScenarioMatrix& ambients(std::vector<double> celsius);
  ScenarioMatrix& refresh_rates(std::vector<double> hz);
  /// `count` seeds per (scenario, ambient, refresh) point; see
  /// ScenarioSpec::base_seed for the derivation.
  ScenarioMatrix& seeds(std::size_t count);

  [[nodiscard]] std::size_t scenario_count() const noexcept { return scenarios_.size(); }
  /// Number of cells expand() will produce.
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] std::vector<ScenarioCell> expand() const;

  /// Appends one session per cell to `plan` (cell order), all under
  /// `governor`. Returns the number of cells appended. Callers that also
  /// need the cell labels should expand() once and use append_cells(), so
  /// labels and plan rows stay aligned by construction.
  std::size_t append_to(RunPlan& plan, GovernorKind governor) const;
  [[nodiscard]] RunPlan to_run_plan(GovernorKind governor) const;

  /// Appends one training cell per expanded cell: `config` adapted to the
  /// cell's panel/ambient, `base` options with seed/ambient/refresh
  /// substituted. Returns the number of cells appended.
  std::size_t append_to(TrainingPlan& plan, const core::NextConfig& config,
                        const TrainingOptions& base) const;

 private:
  std::vector<ScenarioSpec> scenarios_;
  std::vector<double> ambients_;
  std::vector<double> refresh_rates_;
  std::size_t seeds_{1};
};

/// Appends one session per already-expanded cell to `plan` under
/// `governor` (cell order). ScenarioMatrix::append_to/to_run_plan are thin
/// wrappers; use this directly when the cells are also consumed for labels.
std::size_t append_cells(RunPlan& plan, std::span<const ScenarioCell> cells,
                         GovernorKind governor);

/// Training counterpart of the RunPlan append_cells().
std::size_t append_cells(TrainingPlan& plan, std::span<const ScenarioCell> cells,
                         const core::NextConfig& config, const TrainingOptions& base);

}  // namespace nextgov::sim
