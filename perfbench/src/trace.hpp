// trace.hpp - in-memory spans for the traced benchmark run.
//
// A span is a name, a start, an end and the span that caused it. Spans are
// kept in memory while the run measures and written once, at the end. A
// layer's self time is its span's duration minus the part of that interval
// its child spans cover (children may nest or overlap; the covered part is
// the union of their intervals, clipped to the parent).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic host clock in nanoseconds.
[[nodiscard]] std::int64_t now_ns() noexcept;

struct Span {
  std::string_view name;  ///< must outlive the trace (string literals)
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::optional<std::size_t> parent;
};

class Trace {
 public:
  /// Records a finished span and returns its id. A parent must already be
  /// recorded.
  std::size_t add(std::string_view name, std::int64_t start_ns, std::int64_t end_ns,
                  std::optional<std::size_t> parent = std::nullopt);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] bool empty() const noexcept { return spans_.empty(); }

  /// Self time of every span, by id.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;
  /// Self time summed per span name.
  [[nodiscard]] std::map<std::string, std::int64_t, std::less<>> self_ns_by_name() const;

  /// One JSON object per line: {"id", "name", "start_ns", "end_ns",
  /// "parent"} (parent null for roots). Returns false when the file cannot
  /// be written.
  bool write_json_lines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
