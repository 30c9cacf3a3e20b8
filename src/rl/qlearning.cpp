#include "rl/qlearning.hpp"

#include "common/error.hpp"

namespace nextgov::rl {

QLearning::QLearning(QLearningParams params) : params_{params} {
  require(params.alpha > 0.0 && params.alpha <= 1.0, "alpha in (0,1]");
  require(params.gamma >= 0.0 && params.gamma < 1.0, "gamma in [0,1)");
}

double QLearning::effective_alpha(const QTable& table, StateKey s) const noexcept {
  if (params_.visit_decay <= 0.0) return params_.alpha;
  const double visits = static_cast<double>(table.visits(s));
  const double a = params_.alpha / (1.0 + visits * params_.visit_decay);
  return a < params_.alpha_min ? params_.alpha_min : a;
}

double QLearning::update(QTable& table, StateKey s, std::size_t a, double reward,
                         StateKey s_next) {
  const double old_q = table.q(s, a);
  const double td = reward + params_.gamma * table.max_q(s_next) - old_q;
  table.set_q(s, a, old_q + effective_alpha(table, s) * td);
  table.record_visit(s);
  return td;
}

}  // namespace nextgov::rl
