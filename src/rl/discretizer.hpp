// discretizer.hpp - state quantization and packing.
//
// Section IV-B: "quantizing the frame rate would be desirable for improved
// training time" - the number of FPS quantization levels is the central
// training-time knob (Fig. 6; 30 levels were found best). LinearBins
// quantizes a continuous signal into equal-width bins; MixedRadixPacker
// sizes the state space of several bounded fields packed into one 64-bit
// StateKey, and refuses layouts that would not fit.
#pragma once

#include <cstddef>
#include <cstdint>

#include "rl/qtable.hpp"

namespace nextgov::rl {

/// Equal-width binning of [lo, hi] into `bins` levels; values outside the
/// range clamp to the edge bins.
class LinearBins {
 public:
  LinearBins(double lo, double hi, std::size_t bins);

  [[nodiscard]] std::size_t bin(double value) const noexcept;
  [[nodiscard]] std::size_t count() const noexcept { return bins_; }

 private:
  double lo_;
  double hi_;
  std::size_t bins_;
};

/// The layout key = f0 + c0*(f1 + c1*(f2 + ...)) of fields f0..fn-1 with
/// cardinalities c0..cn-1: add_field fails if the product of cardinalities
/// overflows 64 bits.
class MixedRadixPacker {
 public:
  /// Declares the next field.
  void add_field(std::size_t cardinality);

 private:
  std::uint64_t total_{1};
};

}  // namespace nextgov::rl
