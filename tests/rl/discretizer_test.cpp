// Unit + property tests for binning and state packing.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "rl/discretizer.hpp"

namespace nextgov::rl {
namespace {

TEST(LinearBins, BasicBinning) {
  const LinearBins bins{0.0, 60.0, 30};  // the paper's 30 FPS levels
  EXPECT_EQ(bins.count(), 30u);
  EXPECT_EQ(bins.bin(0.0), 0u);
  EXPECT_EQ(bins.bin(1.9), 0u);
  EXPECT_EQ(bins.bin(2.1), 1u);
  EXPECT_EQ(bins.bin(59.9), 29u);
  EXPECT_EQ(bins.bin(60.0), 29u);
}

TEST(LinearBins, ClampsOutOfRange) {
  const LinearBins bins{20.0, 95.0, 8};
  EXPECT_EQ(bins.bin(-100.0), 0u);
  EXPECT_EQ(bins.bin(500.0), 7u);
}

TEST(LinearBins, Validation) {
  EXPECT_THROW(LinearBins(0.0, 1.0, 0), ConfigError);
  EXPECT_THROW(LinearBins(1.0, 1.0, 4), ConfigError);
  EXPECT_THROW(LinearBins(2.0, 1.0, 4), ConfigError);
}

TEST(MixedRadixPacker, RejectsOverflowAndZeroCardinality) {
  MixedRadixPacker packer;
  EXPECT_THROW(packer.add_field(0), ConfigError);
  packer.add_field(std::size_t{1} << 62);
  EXPECT_THROW(packer.add_field(8), ConfigError);
}

TEST(MixedRadixPacker, PaperStateSpaceFitsIn64Bits) {
  // 18*10*6 freqs x 30 fps x 30 target x 8 power x 8x8 temps ~ 5e8 states.
  // (Encoder.StateSpaceMatchesConfiguredCardinalities pins the product.)
  MixedRadixPacker packer;
  for (const std::size_t cardinality : {18, 10, 6, 30, 30, 8, 8, 8}) {
    EXPECT_NO_THROW(packer.add_field(cardinality));
  }
}

}  // namespace
}  // namespace nextgov::rl
