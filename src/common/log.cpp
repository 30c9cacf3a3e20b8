#include "common/log.hpp"

#include <cstdio>

namespace nextgov {

void log_warning(const std::string& message) {
  std::fprintf(stderr, "[nextgov WARN] %s\n", message.c_str());
}

}  // namespace nextgov
