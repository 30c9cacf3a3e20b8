// phased_app.hpp - data-driven application behaviour model.
//
// Every workload in the evaluation (home screen, Facebook, Spotify, Chrome,
// YouTube, Lineage 2 Revolution, PubG) is an instance of PhasedApp: a
// stochastic state machine over *phases*. A phase bundles
//   - the frame demand (none / VSync-limited continuous / fixed cadence),
//   - the per-frame CPU and GPU cost distributions (lognormal),
//   - the background (non-frame) load, and
//   - a dwell-time distribution.
// Phase selection is weighted and gated on the UserModel's engagement state,
// which is how "user interaction behaviour" shapes the FPS pattern that the
// Next agent's frame window observes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "workload/app.hpp"
#include "workload/user_model.hpp"

namespace nextgov::workload {

/// How a phase produces frames.
enum class FrameDemand {
  kNone,        ///< static screen: no new frames (FPS decays to 0)
  kContinuous,  ///< render as fast as the pipeline allows (VSync-capped)
  kCadence,     ///< fixed rate (video playback, spinners, progress ticks)
};

/// Lognormal work distribution with mean `mean_cycles` and log-sigma
/// `sigma` (sigma = 0 degenerates to the constant mean).
struct WorkDist {
  double mean_cycles{1e6};
  double sigma{0.0};
};

struct PhaseSpec {
  std::string name;
  FrameDemand demand{FrameDemand::kNone};
  double cadence_fps{0.0};  ///< for kCadence: frames per second requested
  WorkDist cpu;             ///< big-core cycles per frame
  WorkDist gpu;             ///< per-GPU-core cycles per frame
  BackgroundLoad background;
  double mean_duration_s{5.0};
  double min_duration_s{0.5};
  double duration_sigma{0.5};   ///< lognormal shape of the dwell time
  bool needs_engagement{false}; ///< phase only entered while user is engaged
  double weight{1.0};           ///< selection weight among eligible phases
  bool initial_only{false};     ///< e.g. splash/loading: entered once at t=0
};

struct AppSpec {
  std::string name;
  std::vector<PhaseSpec> phases;
  UserModelParams user;
  /// Index of the phase entered at t=0 (typically a splash/loading phase).
  std::size_t initial_phase{0};
};

class PhasedApp final : public App {
 public:
  PhasedApp(AppSpec spec, Rng rng);

  void update(SimTime now, SimTime dt) override;
  [[nodiscard]] bool wants_frame(SimTime now) override;
  [[nodiscard]] render::FrameJob begin_frame(SimTime now) override;
  [[nodiscard]] BackgroundLoad background() const override;
  [[nodiscard]] std::string_view name() const override { return spec_.name; }
  [[nodiscard]] std::string_view phase_name() const override;

 private:
  void enter_phase(std::size_t index, SimTime now);
  [[nodiscard]] std::size_t pick_next_phase();
  [[nodiscard]] double sample_work(const WorkDist& dist);

  AppSpec spec_;
  Rng rng_;        ///< per-frame work sampling (consumption depends on FPS)
  Rng phase_rng_;  ///< phase picking + dwell times: independent of how many
                   ///< frames were rendered, so the *session structure* is
                   ///< identical across governors (fair comparisons)
  UserModel user_;
  std::size_t phase_{0};
  SimTime phase_end_{SimTime::zero()};
  double cadence_credit_{0.0};
  bool started_{false};
};

}  // namespace nextgov::workload
