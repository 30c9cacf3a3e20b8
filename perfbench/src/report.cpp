#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

bool is_alnum(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
}

/// 1-based nearest rank of percentile p over n samples: ceil(p * n / 100).
std::size_t nearest_rank(std::size_t n, int p) noexcept {
  return (static_cast<std::size_t>(p) * n + 99) / 100;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty() || name.size() > 64 || !is_alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [](char c) { return is_alnum(c) || c == '_' || c == '.' || c == '-'; });
}

bool valid_unit(std::string_view unit) noexcept {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
  });
}

std::optional<int> highest_percentile(std::size_t n) noexcept {
  for (int p = 90; p >= 50; --p) {
    if (n >= 10 && nearest_rank(n, p) <= n - 10) return p;
  }
  return std::nullopt;
}

std::optional<double> percentile(std::vector<double>& samples, int p) {
  const std::size_t n = samples.size();
  const std::optional<int> highest = highest_percentile(n);
  if (p < 0 || !highest || p > *highest) return std::nullopt;
  const std::size_t rank = std::max<std::size_t>(1, nearest_rank(n, p));
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

void Checks::expect(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "perfbench: check failed: %.*s\n", static_cast<int>(what.size()),
               what.data());
}

void Report::add(std::string name, double value, std::string unit) {
  if (!valid_metric_name(name)) throw std::invalid_argument("invalid metric name: " + name);
  if (!valid_unit(unit)) throw std::invalid_argument("invalid unit for " + name + ": " + unit);
  if (find(name) != nullptr) throw std::invalid_argument("metric reported twice: " + name);
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

const Metric* Report::find(std::string_view name) const noexcept {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string Report::json(const Checks& checks) const {
  std::string out = "{\"correct\": ";
  out += checks.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted());
  out += ", \"failed\": " + std::to_string(checks.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" + m.unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
