// Unit tests for PPDW (Eq. 1/2) - the paper's metric.
#include <gtest/gtest.h>

#include "core/ppdw.hpp"

namespace nextgov::core {
namespace {

TEST(Ppdw, Equation1) {
  // PPDW = FPS / ((T - Ta) * P): 60 / ((53-21) * 3.54) ~ 0.5297 - the
  // magnitude of the paper's Fig. 4 values at 60 FPS (0.5316).
  const double v = ppdw(60.0, Watts{3.54}, Celsius{53.0}, Celsius{21.0});
  EXPECT_NEAR(v, 0.5297, 0.0005);
}

TEST(Ppdw, ZeroFpsGivesZero) {
  EXPECT_DOUBLE_EQ(ppdw(0.0, Watts{5.0}, Celsius{60.0}, Celsius{21.0}), 0.0);
}

TEST(Ppdw, GuardsAgainstDegenerateDenominator) {
  // At ambient temperature the delta clamps to 0.5 K; power clamps to 1 mW.
  const double at_ambient = ppdw(30.0, Watts{2.0}, Celsius{21.0}, Celsius{21.0});
  EXPECT_DOUBLE_EQ(at_ambient, 30.0 / (0.5 * 2.0));
  const double no_power = ppdw(30.0, Watts{0.0}, Celsius{40.0}, Celsius{21.0});
  EXPECT_DOUBLE_EQ(no_power, 30.0 / (19.0 * 1e-3));
}

TEST(Ppdw, HigherFpsSamePowerTempIsBetter) {
  const double lo = ppdw(30.0, Watts{3.0}, Celsius{50.0}, Celsius{21.0});
  const double hi = ppdw(60.0, Watts{3.0}, Celsius{50.0}, Celsius{21.0});
  EXPECT_GT(hi, lo);
}

TEST(Ppdw, LowerPowerOrTempIsBetter) {
  const double base = ppdw(30.0, Watts{3.0}, Celsius{50.0}, Celsius{21.0});
  EXPECT_GT(ppdw(30.0, Watts{2.0}, Celsius{50.0}, Celsius{21.0}), base);
  EXPECT_GT(ppdw(30.0, Watts{3.0}, Celsius{40.0}, Celsius{21.0}), base);
}

TEST(PpdwBounds, WorstAndBestMatchPaperDefinitions) {
  const PpdwBounds b;
  // PPDW_worst = FPS_least / ((T_max - Ta) * P_max) = 1/(74*12).
  EXPECT_NEAR(b.worst(), 1.0 / (74.0 * 12.0), 1e-9);
  // PPDW_best = FPS_max / ((T_least - Ta) * P_least) = 60/(8*1).
  EXPECT_NEAR(b.best(), 60.0 / 8.0, 1e-9);
  EXPECT_LT(b.worst(), b.best());
}

TEST(PpdwBounds, Equation2OrderingHoldsForRealisticOperatingPoints) {
  const PpdwBounds b;
  // Every realistic operating point must land inside (worst, best].
  for (double fps : {1.0, 10.0, 30.0, 60.0}) {
    for (double p : {1.2, 3.5, 8.0, 12.0}) {
      for (double t : {30.0, 52.0, 75.0, 95.0}) {
        const double v = clamp_to_bounds(ppdw(fps, Watts{p}, Celsius{t}, b.ambient), b);
        EXPECT_GE(v, b.worst());
        EXPECT_LE(v, b.best());
      }
    }
  }
}

TEST(PpdwBounds, HotAmbientInvertsTheBoundsAndClampsToBest) {
  // Above temp_least (29 C) best() < worst(): every value clamps to best().
  PpdwBounds b;
  b.ambient = Celsius{35.0};
  ASSERT_LT(b.best(), b.worst());
  for (const double v : {-1.0, 0.0, b.best(), b.worst(), 1.0, 100.0}) {
    EXPECT_EQ(clamp_to_bounds(v, b), b.best()) << v;
  }
}

TEST(PpdwScore, MonotoneSaturatingSquash) {
  EXPECT_DOUBLE_EQ(ppdw_score(0.0, 0.3), 0.0);
  EXPECT_DOUBLE_EQ(ppdw_score(0.3, 0.3), 0.5);  // ref is the half-way point
  EXPECT_LT(ppdw_score(0.1, 0.3), ppdw_score(0.2, 0.3));
  EXPECT_LT(ppdw_score(100.0, 0.3), 1.0);
  EXPECT_GT(ppdw_score(100.0, 0.3), 0.99);
}

TEST(PpdwScore, NegativeInputClampsToZero) {
  EXPECT_DOUBLE_EQ(ppdw_score(-1.0, 0.3), 0.0);
}

TEST(Ppdw, Fig4TrendPpdwRisesWithGovernedFps) {
  // The paper's Fig. 4: on a well-governed game, PPDW grows with FPS
  // because power/temperature grow sublinearly relative to delivered
  // frames. Emulate the figure's operating points.
  struct Point {
    double fps, p, t;
  };
  // FPS, power and big temp roughly as a governed Lineage run would scale
  // (power and heat grow sublinearly in delivered frames).
  const Point pts[] = {{10, 1.65, 31.5}, {20, 1.8, 33}, {30, 1.95, 34.5},
                       {40, 2.1, 36},    {50, 2.25, 37.5}, {60, 2.4, 39}};
  double prev = 0.0;
  for (const auto& pt : pts) {
    const double v = ppdw(pt.fps, Watts{pt.p}, Celsius{pt.t}, Celsius{21.0});
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(Ppdw, Fig4WorstCasePointsAreFarBelowGovernedOnes) {
  // Red points in Fig. 4: FPS 0/1/10 at max power and max temperature.
  const double governed_10 = ppdw(10.0, Watts{1.8}, Celsius{33.0}, Celsius{21.0});
  const double worst_10 = ppdw(10.0, Watts{12.0}, Celsius{95.0}, Celsius{21.0});
  EXPECT_LT(worst_10, governed_10 / 10.0);
  const double worst_1 = ppdw(1.0, Watts{12.0}, Celsius{95.0}, Celsius{21.0});
  EXPECT_LT(worst_1, worst_10);
  EXPECT_DOUBLE_EQ(ppdw(0.0, Watts{12.0}, Celsius{95.0}, Celsius{21.0}), 0.0);
}

}  // namespace
}  // namespace nextgov::core
