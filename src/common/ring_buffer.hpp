// ring_buffer.hpp - fixed-capacity circular buffer.
//
// Backs the paper's "frame window" (160 FPS samples at 25 ms over 4 s) and
// the sliding FPS counters. Once full, each push evicts the oldest element;
// iteration yields elements oldest-first. No allocation after construction.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace nextgov {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : buf_(capacity) {
    require(capacity > 0, "RingBuffer capacity must be positive");
  }

  void push(const T& value) noexcept {
    buf_[head_] = value;
    head_ = (head_ + 1) % buf_.size();
    if (size_ < buf_.size()) ++size_;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == buf_.size(); }

  /// Element `i` counted from the oldest (0) to the newest.
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    NEXTGOV_ASSERT(i < size_);
    return buf_[(head_ + buf_.size() - size_ + i) % buf_.size()];
  }

  [[nodiscard]] const T& oldest() const noexcept {
    NEXTGOV_ASSERT(size_ > 0);
    return (*this)[0];
  }

  void clear() noexcept {
    size_ = 0;
    head_ = 0;
  }

 private:
  std::vector<T> buf_;
  std::size_t head_{0};
  std::size_t size_{0};
};

}  // namespace nextgov
