#include "util/logging.h"

#include <chrono>
#include <cstdio>

namespace fs::util {

namespace {
LogLevel g_level = LogLevel::kInfo;

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    default: return "?????";
  }
}
}  // namespace

LogLevel log_level() { return g_level; }
void set_log_level(LogLevel level) { g_level = level; }

namespace {
using Clock = std::chrono::steady_clock;

Clock::time_point process_start() {
  static const Clock::time_point start = Clock::now();
  return start;
}

// Reads the epoch during static initialisation, before main, so it is
// process start and not the first call: a span that began before the
// first clock reading would otherwise stamp a negative trace timestamp.
const Clock::time_point g_epoch_anchor = process_start();
}  // namespace

double monotonic_seconds() {
  return std::chrono::duration<double>(Clock::now() - process_start())
      .count();
}

namespace detail {
void log_line(LogLevel level, const std::string& message) {
  std::fprintf(stderr, "[%8.2fs] %s %s\n", monotonic_seconds(),
               level_tag(level), message.c_str());
}
}  // namespace detail

}  // namespace fs::util
