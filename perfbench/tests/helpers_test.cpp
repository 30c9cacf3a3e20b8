// Tests of the benchmark's own helpers: the percentile rule, span self
// time and metric-name validation.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

TEST(Percentile, HighestPercentileLeavesTenSamplesBeyond) {
  EXPECT_EQ(highest_percentile(100), 90);
  EXPECT_EQ(highest_percentile(1000), 90);  // capped at p90
  EXPECT_EQ(highest_percentile(50), 80);
  EXPECT_EQ(highest_percentile(20), 50);
  EXPECT_EQ(highest_percentile(19), std::nullopt);
  EXPECT_EQ(highest_percentile(0), std::nullopt);
}

TEST(Percentile, P90NeedsAHundredSamples) {
  auto v99 = iota_samples(99);
  EXPECT_EQ(percentile(v99, 90), std::nullopt);
  auto v100 = iota_samples(100);
  EXPECT_EQ(percentile(v100, 90), 90.0);  // 10 samples (91..100) beyond it
  auto v1000 = iota_samples(1000);
  EXPECT_EQ(percentile(v1000, 99), std::nullopt);  // tails stop at p90
}

TEST(Percentile, NearestRankOnUnsortedInput) {
  std::vector<double> v{5, 1, 4, 2, 3, 10, 9, 8, 7, 6, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11};
  EXPECT_EQ(percentile(v, 50), 10.0);
  auto few = iota_samples(10);
  EXPECT_EQ(percentile(few, 50), std::nullopt);
}

TEST(Percentile, MedianOfEvenAndOddSets) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Trace, SelfTimeSubtractsNestedChildren) {
  Trace t;
  const auto root = t.add("root", 0, 100);
  const auto child = t.add("child", 10, 40, root);
  t.add("grandchild", 20, 30, child);
  const auto self = t.self_ns();
  EXPECT_EQ(self[root], 70);
  EXPECT_EQ(self[child], 20);
  EXPECT_EQ(self[2], 10);
}

TEST(Trace, OverlappingChildrenCountOnce) {
  Trace t;
  const auto root = t.add("root", 0, 100);
  t.add("a", 10, 50, root);
  t.add("b", 30, 70, root);  // overlaps a on [30, 50)
  t.add("c", 60, 65, root);  // inside b
  EXPECT_EQ(t.self_ns()[root], 40);  // covered: [10, 70)
}

TEST(Trace, ChildrenAreClippedToTheParent) {
  Trace t;
  const auto root = t.add("root", 100, 200);
  t.add("early", 50, 120, root);
  t.add("late", 190, 260, root);
  EXPECT_EQ(t.self_ns()[root], 70);
}

TEST(Trace, SelfTimeSumsByName) {
  Trace t;
  const auto a = t.add("layer", 0, 10);
  t.add("layer", 20, 25);
  t.add("inner", 2, 4, a);
  const auto by_name = t.self_ns_by_name();
  EXPECT_EQ(by_name.at("layer"), 13);
  EXPECT_EQ(by_name.at("inner"), 2);
}

TEST(Trace, RejectsInvalidSpans) {
  Trace t;
  EXPECT_THROW(t.add("x", 10, 5), std::invalid_argument);
  EXPECT_THROW(t.add("x", 0, 5, 3), std::invalid_argument);
}

TEST(MetricNames, AcceptTheAllowedAlphabet) {
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("soc.power_ns_per_step"));
  EXPECT_TRUE(valid_metric_name("9lives-x.y_z"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

TEST(MetricNames, RejectOtherCharactersAndShapes) {
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/name"));
  EXPECT_FALSE(valid_metric_name("quote\""));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_TRUE(valid_unit("sim-s/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit("m s"));
}

TEST(Report, JsonCarriesEveryDigitAndRefusesBadNames) {
  Report r;
  r.add("latency_ms", 1.2034, "ms");
  EXPECT_THROW(r.add("latency_ms", 2.0, "ms"), std::invalid_argument);
  EXPECT_THROW(r.add("bad name", 2.0, "ms"), std::invalid_argument);
  Checks c;
  c.expect(true, "ok");
  EXPECT_EQ(r.json(c),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}}}");
}

}  // namespace
}  // namespace perfbench
