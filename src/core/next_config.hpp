// next_config.hpp - every knob of the Next agent in one place.
//
// Defaults are the paper's published values: 25 ms FPS sampling, 4 s frame
// window, 100 ms agent invocation (Section IV), 30 FPS quantization levels
// (Section IV-B / Fig. 6 "choosing 30 frame rate results in the best
// training period"). The ablation benches sweep these.
#pragma once

#include <cstddef>

#include "common/sim_time.hpp"
#include "core/ppdw.hpp"
#include "rl/policy.hpp"
#include "rl/qlearning.hpp"

namespace nextgov::core {

/// Which efficiency metric feeds the reward (ablation knob; the paper's
/// contribution is kPpdw - Section III-B argues PPW is "not enough").
enum class RewardMetric {
  kPpdw,     ///< performance per degree watt (Eq. 1) - the paper's metric
  kPpw,      ///< performance per watt (no thermal term) - the ablated prior
  kFpsOnly,  ///< pure QoS tracking, no efficiency term
};

struct NextConfig {
  // --- user-interaction analysis (Section IV-A) ---
  SimTime sample_period{SimTime::from_ms(25)};
  SimTime frame_window{SimTime::from_seconds(4.0)};

  // --- agent cadence (Section IV-B: "invoked every 100 ms") ---
  SimTime control_period{SimTime::from_ms(100)};

  // --- state quantization (Section IV-B / Fig. 6) ---
  std::size_t fps_levels{30};    ///< FPS + target-FPS quantization levels
  std::size_t power_bins{8};     ///< device-power bins over [0, power_max_w]
  double power_max_w{12.0};
  std::size_t temp_bins{8};      ///< temperature bins over [temp_min, temp_max]
  double temp_min_c{20.0};
  double temp_max_c{95.0};

  // --- learning (Eq. 3) ---
  // gamma = 0.7: DVFS consequences materialize within a few 100 ms control
  // periods; a short horizon keeps the value scale small and credit
  // propagation fast enough for the paper's minutes-scale convergence.
  rl::QLearningParams qlearning{
      .alpha = 0.30, .gamma = 0.70, .alpha_min = 0.04, .visit_decay = 0.01};
  rl::EpsilonSchedule epsilon{.start = 0.30, .end = 0.02, .decay_steps = 8000};
  /// Initial Q for unseen (state, action) pairs. Mildly optimistic (above
  /// typical observed returns, deliberately below the theoretical maximum
  /// 1/(1-gamma)): enough to nudge the learner into untried actions along
  /// its trajectory without forcing exhaustive sweeps of every state.
  /// Deployment is greedy over the whole row (QTable::best_action), untried
  /// entries included; only a never-visited state falls back to "do
  /// nothing".
  double optimistic_q{1.2};

  // --- reward (Eq. 1/2/4 + target-FPS tracking, see next_agent.hpp) ---
  RewardMetric reward_metric{RewardMetric::kPpdw};
  PpdwBounds ppdw_bounds{};
  double ppdw_ref{0.30};         ///< mid-scale of the saturating PPDW score
  double ppw_ref{12.0};          ///< mid-scale for the PPW ablation (fps/W)
  double track_sigma_floor{3.0}; ///< FPS tolerance floor for the tracking term
  double track_sigma_frac{0.15}; ///< tolerance as a fraction of the target
  double idle_power_scale_w{4.0};///< power normalization for target-FPS = 0
  /// Jank penalty scale: reward *= exp(-drop_rate/drop_scale). Frame drops
  /// are the paper's QoS-loss signal (Section I) and, unlike the frame
  /// window's mode, cannot be gamed by letting QoS degrade slowly.
  double drop_scale{6.0};

  // --- actuation ---
  /// OPP steps a single "frequency up"/"frequency down" action moves the
  /// cap relative to the operating point. Symmetric +-1 per the paper;
  /// asymmetric steps bias the cap random-walk during exploration (an
  /// "up" is locked in immediately by the underlying governor whenever
  /// background load saturates, so up > down drifts caps to fmax).
  std::size_t cap_up_step{1};
  std::size_t cap_down_step{1};
};

}  // namespace nextgov::core
