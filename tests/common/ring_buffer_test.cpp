// Unit tests for the fixed-capacity ring buffer behind the frame window.
// The window's own tests (tests/core/frame_window_test.cpp) pin its
// capacity through full() and its contents through the mode oracle.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/ring_buffer.hpp"

namespace nextgov {
namespace {

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int> rb{4};
  EXPECT_TRUE(rb.empty());
  EXPECT_FALSE(rb.full());
  for (int i = 0; i < 3; ++i) rb.push(i);
  EXPECT_FALSE(rb.full());
  rb.push(3);
  EXPECT_TRUE(rb.full());
}

TEST(RingBuffer, RejectsZeroCapacity) { EXPECT_THROW(RingBuffer<int>{0}, ConfigError); }

TEST(RingBuffer, FillsInOrder) {
  RingBuffer<int> rb{3};
  rb.push(1);
  rb.push(2);
  EXPECT_FALSE(rb.full());
  EXPECT_EQ(rb[0], 1);
  EXPECT_EQ(rb[1], 2);
  EXPECT_EQ(rb.oldest(), 1);
}

TEST(RingBuffer, EvictsOldestWhenFull) {
  RingBuffer<int> rb{3};
  for (int i = 1; i <= 5; ++i) rb.push(i);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb[0], 3);
  EXPECT_EQ(rb[1], 4);
  EXPECT_EQ(rb[2], 5);
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> rb{2};
  rb.push(1);
  rb.push(2);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push(9);
  EXPECT_EQ(rb.oldest(), 9);
  EXPECT_FALSE(rb.full());
}

/// Property: after any number of pushes, contents equal the last
/// min(n, capacity) pushed values in order.
class RingBufferProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RingBufferProperty, ContentsMatchTail) {
  const std::size_t capacity = GetParam();
  RingBuffer<int> rb{capacity};
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    rb.push(i);
    const auto expected_size = std::min<std::size_t>(capacity, static_cast<std::size_t>(i) + 1);
    ASSERT_EQ(rb.full(), expected_size == capacity);
    for (std::size_t k = 0; k < expected_size; ++k) {
      ASSERT_EQ(rb[k], i - static_cast<int>(expected_size) + 1 + static_cast<int>(k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, RingBufferProperty,
                         ::testing::Values(1u, 2u, 3u, 7u, 160u));

}  // namespace
}  // namespace nextgov
