#include "common/stats.hpp"

#include <algorithm>

namespace nextgov {

void RunningStats::add(double x) noexcept {
  ++n_;
  if (n_ == 1) {
    mean_ = min_ = max_ = x;
    return;
  }
  mean_ += (x - mean_) / static_cast<double>(n_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double mean_of(std::span<const double> values) noexcept {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace nextgov
