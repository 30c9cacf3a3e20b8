// report.hpp - the benchmark's result vocabulary: metric names, the
// percentile rule, output checks and the one-line JSON result.
//
// Nothing here touches the simulator, so the helpers are unit-tested on
// their own (perfbench/tests/helpers_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A metric name is 1-64 characters of [A-Za-z0-9_.-] starting with a
/// letter or a digit.
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;
/// A unit is 1-16 characters of [A-Za-z0-9_/%.-].
[[nodiscard]] bool valid_unit(std::string_view unit) noexcept;

/// The highest whole percentile (capped at 90) that leaves at least ten of
/// `n` samples strictly above it under the nearest-rank rule; nullopt when
/// no percentile >= 50 does (fewer than 20 samples).
[[nodiscard]] std::optional<int> highest_percentile(std::size_t n) noexcept;

/// Nearest-rank percentile `p` of `samples` (reordered in place). Refuses -
/// returns nullopt - above highest_percentile(samples.size()), so a p90
/// needs at least 100 samples and nothing above p90 is reported.
[[nodiscard]] std::optional<double> percentile(std::vector<double>& samples, int p);

/// Median of a small sample set (mean of the middle pair for even sizes);
/// 0 for an empty set.
[[nodiscard]] double median(std::vector<double> samples);

/// Output checks: every check counts as attempted, failures are named on
/// stderr and counted.
class Checks {
 public:
  void expect(bool ok, std::string_view what);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// Ordered metric set of one run.
class Report {
 public:
  /// Throws std::invalid_argument on an invalid or repeated name or unit.
  void add(std::string name, double value, std::string unit);
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const Metric* find(std::string_view name) const noexcept;

  /// The result line: {"correct": .., "attempted": .., "failed": ..,
  /// "metrics": {name: {"value": .., "unit": ..}, ..}}. Values print with
  /// every significant digit; a non-finite value prints as null.
  [[nodiscard]] std::string json(const Checks& checks) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
