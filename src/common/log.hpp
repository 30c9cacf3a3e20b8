// log.hpp - stderr warnings.
//
// The simulator is a library; it must not spam stdout (that belongs to the
// bench tables). Warnings go to stderr. Intentionally tiny - one level, no
// sinks, no formatting DSL.
#pragma once

#include <sstream>
#include <string>

namespace nextgov {

/// Emits `message` to stderr as a warning.
void log_warning(const std::string& message);

namespace detail {
class WarningLine {
 public:
  WarningLine() = default;
  WarningLine(const WarningLine&) = delete;
  WarningLine& operator=(const WarningLine&) = delete;
  ~WarningLine() { log_warning(stream_.str()); }
  template <typename T>
  WarningLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};
}  // namespace detail

/// Usage: NEXTGOV_WARN << "corrupt snapshot '" << path << "'";
#define NEXTGOV_WARN ::nextgov::detail::WarningLine()

}  // namespace nextgov
