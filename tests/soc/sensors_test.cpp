// Unit tests for sensor quantization and the virtual device sensor.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "soc/sensors.hpp"

namespace nextgov::soc {
namespace {

TEST(Sensors, TemperatureQuantizedToTenthDegree) {
  EXPECT_DOUBLE_EQ(quantize_temperature(Celsius{41.234}).value(), 41.2);
  EXPECT_DOUBLE_EQ(quantize_temperature(Celsius{41.25}).value(), 41.3);
  EXPECT_DOUBLE_EQ(quantize_temperature(Celsius{-0.04}).value(), -0.0);
}

TEST(Sensors, PowerQuantizedToMilliwatt) {
  EXPECT_DOUBLE_EQ(quantize_power(Watts{3.51544}).value(), 3.515);
  EXPECT_DOUBLE_EQ(quantize_power(Watts{3.5156}).value(), 3.516);
}

TEST(Sensors, QuantizationIsIdempotent) {
  const Celsius t = quantize_temperature(Celsius{37.77});
  EXPECT_EQ(quantize_temperature(t).value(), t.value());
  const Watts p = quantize_power(Watts{1.2345});
  EXPECT_EQ(quantize_power(p).value(), p.value());
}

/// round_half_away(x) and std::round(x) as bit patterns (NaNs compare as
/// NaN-ness, their payload aside).
void expect_round_matches(double x) {
  const double got = round_half_away(x);
  const double want = std::round(x);
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << x;
    return;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
      << "x = " << x << " (" << std::hexfloat << x << ")";
}

TEST(Sensors, RoundHalfAwayIsStdRoundBitForBit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double x :
       {0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 41.25 * 10.0, 0.49999999999999994,
        -0.49999999999999994, 0.5000000000000001, 0x1p-1074, -0x1p-1074, 0x1p-1022, -0x1p-1022,
        0x1p52 - 1.0, -(0x1p52 - 1.0), 0x1p52 - 0.5, -(0x1p52 - 0.5), 0x1p52, 0x1p52 + 1.0,
        -(0x1p52 + 1.0), 0x1p53 + 2.0, 1e300, -1e300, kInf, -kInf,
        std::numeric_limits<double>::quiet_NaN(), std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest()}) {
    expect_round_matches(x);
  }
  // Around 2^51, where the add-and-subtract rounding hands over to
  // std::round: the ulp there is 0.5, so every other double is a tie.
  for (double base : {0x1p51, 0x1p52}) {
    for (double offset = -4.0; offset <= 4.0; offset += 0.5) {
      const double x = base + offset;
      for (const double y : {x, std::nextafter(x, 0.0), std::nextafter(x, kInf)}) {
        expect_round_matches(y);
        expect_round_matches(-y);
      }
    }
  }
  // Every +-k.5 boundary up to 2^20, and its neighbours on either side.
  for (std::int64_t k = 0; k < (std::int64_t{1} << 20); ++k) {
    const double half = static_cast<double>(k) + 0.5;
    for (const double x : {half, std::nextafter(half, 0.0), std::nextafter(half, 1e9)}) {
      expect_round_matches(x);
      expect_round_matches(-x);
    }
  }
  // A million seeded doubles: uniform in the sensors' range, scaled as the
  // quantizers scale them, and raw bit patterns across every exponent.
  std::mt19937_64 rng{20200309};
  std::uniform_real_distribution<double> reading{-50.0, 150.0};
  for (int i = 0; i < 1'000'000; ++i) {
    expect_round_matches(reading(rng) * (i % 2 == 0 ? 10.0 : 1000.0));
    expect_round_matches(std::bit_cast<double>(rng()));
    if (::testing::Test::HasFailure()) return;
  }
}

std::uint64_t bits(Celsius t) { return std::bit_cast<std::uint64_t>(t.value()); }

TEST(TemperatureSensor, ReadingIsQuantizeTemperatureBitForBitOnRandomWalks) {
  // Raw values whose tenfold is exactly a tie k + 0.5, on both sides of 0.
  std::vector<double> ties;
  for (int k = -400; k < 1500; ++k) {
    const double raw = (k + 0.5) / 10.0;
    if (raw * 10.0 == k + 0.5) ties.push_back(raw);
  }
  ASSERT_GT(ties.size(), 500u);

  std::mt19937_64 rng{20200309};
  std::uniform_real_distribution<double> start{-30.0, 120.0};
  std::uniform_real_distribution<double> near_zero{-0.3, 0.3};
  std::uniform_real_distribution<double> log10_sigma{-5.0, 0.0};
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  std::uniform_int_distribution<std::size_t> pick_tie{0, ties.size() - 1};
  std::size_t reused = 0;
  std::size_t requantized = 0;
  for (int walk = 0; walk < 3000; ++walk) {
    TemperatureSensor sensor;
    // A third of the walks start near 0 C and drift across it.
    double raw = walk % 3 == 0 ? near_zero(rng) : start(rng);
    const double sigma = std::pow(10.0, log10_sigma(rng));
    const double drift = (unit(rng) - 0.5) * sigma;
    std::normal_distribution<double> noise{drift, sigma};
    for (int step = 0; step < 400; ++step) {
      const double u = unit(rng);
      if (u < 0.02) {
        // Onto an exact tie, or one ulp to either side of it.
        const double tie = ties[pick_tie(rng)];
        raw = u < 0.01 ? tie : std::nextafter(tie, u < 0.015 ? -1e9 : 1e9);
      } else if (u < 0.025) {
        raw = u < 0.0225 ? 0.0 : -0.0;
      } else {
        raw += noise(rng);
      }
      const Celsius before = sensor.reading();
      if (sensor.read(raw)) {
        ++requantized;
      } else {
        ++reused;
        ASSERT_EQ(bits(sensor.reading()), bits(before));
      }
      ASSERT_EQ(bits(sensor.reading()), bits(quantize_temperature(Celsius{raw})))
          << "walk " << walk << ", step " << step << ", raw " << std::hexfloat << raw;
    }
  }
  // Both paths ran many times.
  EXPECT_GT(reused, 100'000u);
  EXPECT_GT(requantized, 100'000u);
}

TEST(Sensors, VirtualDeviceSensorIsDocumentedWeightedAverage) {
  // 0.40*battery + 0.35*skin + 0.25*max(soc) per DESIGN.md.
  const Celsius t = virtual_device_temperature(Celsius{30.0}, Celsius{28.0}, Celsius{60.0},
                                               Celsius{40.0}, Celsius{50.0});
  EXPECT_DOUBLE_EQ(t.value(), 0.40 * 30.0 + 0.35 * 28.0 + 0.25 * 60.0);
}

TEST(Sensors, VirtualSensorUsesHottestSocNode) {
  const Celsius gpu_hottest = virtual_device_temperature(
      Celsius{30.0}, Celsius{30.0}, Celsius{40.0}, Celsius{35.0}, Celsius{70.0});
  const Celsius big_hottest = virtual_device_temperature(
      Celsius{30.0}, Celsius{30.0}, Celsius{70.0}, Celsius{35.0}, Celsius{40.0});
  EXPECT_DOUBLE_EQ(gpu_hottest.value(), big_hottest.value());
}

TEST(Sensors, UniformTemperatureIsFixedPoint) {
  const Celsius t =
      virtual_device_temperature(Celsius{21.0}, Celsius{21.0}, Celsius{21.0}, Celsius{21.0},
                                 Celsius{21.0});
  EXPECT_NEAR(t.value(), 21.0, 1e-12);
}

}  // namespace
}  // namespace nextgov::soc
