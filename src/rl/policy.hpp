// policy.hpp - action-selection policies.
//
// Training uses epsilon-greedy with linear decay (explore early, exploit
// late); deployment ("fully trained" in the paper's evaluation) is pure
// greedy over the persisted Q-table.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "rl/qtable.hpp"

namespace nextgov::rl {

struct EpsilonSchedule {
  double start{0.60};
  double end{0.05};
  std::uint64_t decay_steps{20000};

  /// Epsilon after `step` decisions (linear interpolation, clamped).
  [[nodiscard]] double at(std::uint64_t step) const noexcept;
};

class EpsilonGreedyPolicy {
 public:
  explicit EpsilonGreedyPolicy(EpsilonSchedule schedule);

  /// Picks an action for `state`; advances the decay step counter.
  [[nodiscard]] std::size_t select(const QTable& table, StateKey state, Rng& rng);

 private:
  EpsilonSchedule schedule_;
  std::uint64_t step_{0};
};

}  // namespace nextgov::rl
