#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t Trace::add(std::string_view name, std::int64_t start_ns, std::int64_t end_ns,
                       std::optional<std::size_t> parent) {
  if (end_ns < start_ns) throw std::invalid_argument("span ends before it starts");
  if (parent && *parent >= spans_.size()) throw std::invalid_argument("unknown parent span");
  spans_.push_back({name, start_ns, end_ns, parent});
  return spans_.size() - 1;
}

std::vector<std::int64_t> Trace::self_ns() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent) children[*s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;  // end of the union measured so far
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, s.end_ns);
      if (end <= start) continue;
      covered += end - start;
      cursor = end;
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, std::int64_t, std::less<>> Trace::self_ns_by_name() const {
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::string, std::int64_t, std::less<>> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) by_name[std::string{spans_[i].name}] += self[i];
  return by_name;
}

bool Trace::write_json_lines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "{\"id\": %zu, \"name\": \"%.*s\", \"start_ns\": %lld, \"end_ns\": %lld, ",
                 i, static_cast<int>(s.name.size()), s.name.data(),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    if (s.parent) {
      std::fprintf(f, "\"parent\": %zu}\n", *s.parent);
    } else {
      std::fprintf(f, "\"parent\": null}\n");
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
