#include "workload/user_model.hpp"

#include <algorithm>
#include <cmath>

namespace nextgov::workload {

UserModel::UserModel(UserModelParams params, Rng rng)
    : params_{params}, rng_{rng}, engaged_{params.start_engaged} {}

void UserModel::schedule_next(SimTime from) {
  const double mean = engaged_ ? params_.engaged_mean_s : params_.passive_mean_s;
  const double sigma = engaged_ ? params_.engaged_sigma : params_.passive_sigma;
  // Lognormal with the requested arithmetic mean: mu = ln(mean) - sigma^2/2.
  const double dwell = std::max(0.3, rng_.lognormal(std::log(mean) - sigma * sigma / 2.0, sigma));
  next_switch_ = from + SimTime::from_seconds(dwell);
  scheduled_ = true;
}

void UserModel::update(SimTime now) {
  if (!scheduled_) schedule_next(now);
  while (now >= next_switch_) {
    engaged_ = !engaged_;
    schedule_next(next_switch_);
  }
}

}  // namespace nextgov::workload
