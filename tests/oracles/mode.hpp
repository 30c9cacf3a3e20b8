// mode.hpp - from-scratch mode of a sample: the test oracle of the frame
// window's incrementally maintained target FPS.
//
// The paper's target FPS for a session window is "the mathematical mode
// operation of all the 160 distinct values" sampled from the frame window
// (Section IV-A). Ties are resolved toward the *largest* value so the agent
// never under-provisions QoS when two frame rates are equally common.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace nextgov::test {

/// Most frequent value of a non-negative integer sample (values <= max_value).
/// Tie-break: the largest of the equally-frequent values. Returns 0 for an
/// empty sample.
inline int mode_of(std::span<const int> values, int max_value = 240) {
  require(max_value >= 0, "mode_of: max_value must be non-negative");
  if (values.empty()) return 0;
  std::vector<int> counts(static_cast<std::size_t>(max_value) + 1, 0);
  for (int v : values) ++counts[static_cast<std::size_t>(std::clamp(v, 0, max_value))];
  int best = 0;
  int best_count = -1;
  // Scan ascending with >= so the largest tied value wins.
  for (int v = 0; v <= max_value; ++v) {
    const int c = counts[static_cast<std::size_t>(v)];
    if (c >= best_count && c > 0) {
      best = v;
      best_count = c;
    }
  }
  return best;
}

/// Mode of doubles after rounding to the nearest integer (FPS samples are
/// conceptually integer frame counts).
inline int mode_of_rounded(std::span<const double> values, int max_value = 240) {
  std::vector<int> ints;
  ints.reserve(values.size());
  for (double v : values) ints.push_back(static_cast<int>(std::lround(v)));
  return mode_of(ints, max_value);
}

}  // namespace nextgov::test
