// qlearning.hpp - Watkins Q-learning update (the paper's Eq. 3).
//
//   Q(s_i, a_i) <- Q(s_i, a_i) + alpha * (r_i - Q(s_i, a_i)
//                                         + gamma * max_a Q(s_{i+1}, a))
//
// Kept as a tiny standalone component so the Next agent and the gridworld
// convergence tests share one implementation.
#pragma once

#include "rl/qtable.hpp"

namespace nextgov::rl {

struct QLearningParams {
  double alpha{0.15};  ///< initial learning rate
  double gamma{0.90};  ///< discount factor
  /// Robbins-Monro style decay: alpha_eff = max(alpha_min,
  /// alpha / (1 + visits(s) * visit_decay)). Averaging out reward noise in
  /// well-visited states lets the learner resolve the small per-OPP reward
  /// gradients of the DVFS lattice. visit_decay = 0 disables decay.
  double alpha_min{0.05};
  double visit_decay{0.02};
};

class QLearning {
 public:
  explicit QLearning(QLearningParams params);

  /// Applies one update; returns the temporal-difference error
  /// (r + gamma*maxQ(s') - Q(s,a)).
  double update(QTable& table, StateKey s, std::size_t a, double reward, StateKey s_next);

  /// Visit-decayed learning rate currently applicable to state `s`.
  [[nodiscard]] double effective_alpha(const QTable& table, StateKey s) const noexcept;

 private:
  QLearningParams params_;
};

}  // namespace nextgov::rl
