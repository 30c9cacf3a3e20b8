#include "rl/discretizer.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace nextgov::rl {

LinearBins::LinearBins(double lo, double hi, std::size_t bins) : lo_{lo}, hi_{hi}, bins_{bins} {
  require(bins > 0, "need at least one bin");
  require(hi > lo, "bin range must be non-empty");
}

std::size_t LinearBins::bin(double value) const noexcept {
  if (value <= lo_) return 0;
  if (value >= hi_) return bins_ - 1;
  const double t = (value - lo_) / (hi_ - lo_);
  const auto b = static_cast<std::size_t>(t * static_cast<double>(bins_));
  return std::min(b, bins_ - 1);
}

void MixedRadixPacker::add_field(std::size_t cardinality) {
  require(cardinality > 0, "field cardinality must be positive");
  const std::uint64_t card64 = cardinality;
  require(total_ <= std::numeric_limits<std::uint64_t>::max() / card64,
          "state space exceeds 64 bits");
  total_ *= card64;
}

}  // namespace nextgov::rl
