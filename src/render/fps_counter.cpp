#include "render/fps_counter.hpp"

#include <utility>

#include "common/error.hpp"

namespace nextgov::render {

namespace {
/// Initial buffer size, allocated up front so a counter's first present
/// (a session's first dropped frame may come late) allocates nothing: a
/// 1 s window at 60 Hz holds 60 presents.
constexpr std::size_t kInitialPresents = 64;
}  // namespace

SlidingFpsCounter::SlidingFpsCounter(SimTime window)
    : window_{window}, presents_(kInitialPresents) {
  require(window.us() > 0, "FPS window must be positive");
}

void SlidingFpsCounter::on_present(SimTime t) {
  NEXTGOV_ASSERT(size_ == 0 || t >= presents_[(head_ + size_ - 1) & (presents_.size() - 1)]);
  if (size_ == presents_.size()) grow();
  presents_[(head_ + size_) & (presents_.size() - 1)] = t;
  ++size_;
}

void SlidingFpsCounter::grow() {
  std::vector<SimTime> bigger(2 * presents_.size());
  for (std::size_t i = 0; i < size_; ++i) {
    bigger[i] = presents_[(head_ + i) & (presents_.size() - 1)];
  }
  presents_ = std::move(bigger);
  head_ = 0;
}

void SlidingFpsCounter::evict(SimTime now) const {
  const SimTime cutoff = now - window_;
  const std::size_t mask = presents_.size() - 1;
  while (size_ > 0 && presents_[head_] <= cutoff) {
    head_ = (head_ + 1) & mask;
    --size_;
  }
}

Fps SlidingFpsCounter::fps(SimTime now) const {
  evict(now);
  const double scale = 1.0 / window_.seconds();
  return Fps{static_cast<double>(size_) * scale};
}

}  // namespace nextgov::render
