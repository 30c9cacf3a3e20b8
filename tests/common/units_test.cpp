// Unit tests for the strong-typed physical quantities.
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "literals.hpp"

namespace nextgov {
namespace {

using namespace nextgov::literals;

TEST(Units, KiloHertzConversions) {
  const KiloHertz f = KiloHertz::from_mhz(2704.0);
  EXPECT_DOUBLE_EQ(f.value(), 2'704'000.0);
  EXPECT_DOUBLE_EQ(f.mhz(), 2704.0);
  EXPECT_DOUBLE_EQ(f.ghz(), 2.704);
  EXPECT_DOUBLE_EQ(f.hz(), 2.704e9);
}

TEST(Units, LiteralsProduceSameValuesAsFactories) {
  EXPECT_EQ(650_mhz, KiloHertz::from_mhz(650));
  EXPECT_EQ(1.5_ghz, KiloHertz::from_mhz(1500));
  EXPECT_EQ(455000_khz, KiloHertz::from_mhz(455));
  EXPECT_EQ(2.5_w, Watts{2.5});
  EXPECT_EQ(250.0_mw, Watts{0.25});
}

TEST(Units, ArithmeticAndOrdering) {
  const Watts a{1.5};
  const Watts b{2.5};
  EXPECT_EQ((a + b).value(), 4.0);
  EXPECT_EQ((b - a).value(), 1.0);
  EXPECT_EQ((a * 2.0).value(), 3.0);
  EXPECT_EQ((2.0 * a).value(), 3.0);
  EXPECT_EQ((b / 2.0).value(), 1.25);
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_EQ(a, Watts{1.5});
}

TEST(Units, RatioOfLikeQuantitiesIsDimensionless) {
  const double ratio = KiloHertz::from_mhz(1352) / KiloHertz::from_mhz(2704);
  EXPECT_DOUBLE_EQ(ratio, 0.5);
}

TEST(Units, CompoundAssignment) {
  Watts p{1.0};
  p += Watts{0.5};
  EXPECT_DOUBLE_EQ(p.value(), 1.5);
  p += Watts{-1.0};
  EXPECT_DOUBLE_EQ(p.value(), 0.5);
}

TEST(Units, FpsRounding) {
  EXPECT_EQ(Fps{59.5}.rounded(), 60);
  EXPECT_EQ(Fps{59.4}.rounded(), 59);
  EXPECT_EQ(Fps{0.2}.rounded(), 0);
  EXPECT_EQ(Fps{0.0}.rounded(), 0);
}

TEST(Units, DefaultConstructedIsZero) {
  EXPECT_DOUBLE_EQ(Watts{}.value(), 0.0);
  EXPECT_DOUBLE_EQ(KiloHertz{}.value(), 0.0);
  EXPECT_DOUBLE_EQ(Celsius{}.value(), 0.0);
}

}  // namespace
}  // namespace nextgov
