#include "util/error.h"

#include <cstdio>
#include <sstream>

#include "util/logging.h"

namespace fs {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kIo: return "IoError";
    case ErrorCode::kParse: return "ParseError";
    case ErrorCode::kNumeric: return "NumericError";
    case ErrorCode::kCorruptCheckpoint: return "CorruptCheckpoint";
    case ErrorCode::kConvergence: return "ConvergenceError";
    case ErrorCode::kCancelled: return "CancelledError";
    case ErrorCode::kBudget: return "BudgetError";
  }
  return "UnknownError";
}

Error::Error(ErrorCode code, const std::string& message)
    : std::runtime_error(std::string(error_code_name(code)) + ": " + message),
      code_(code) {}

namespace util {

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

void Diagnostics::report(Severity severity, ErrorCode code,
                         std::string component, std::string message) {
  // Mirror into the logger so interactive runs see degradations as they
  // happen, not only in the final report; the logger stamps its own
  // monotonic timestamp on the line.
  LogLevel level = LogLevel::kInfo;
  if (severity == Severity::kWarning) level = LogLevel::kWarn;
  if (severity == Severity::kError) level = LogLevel::kError;
  log(level, error_code_name(code), ' ', component, ": ", message);
  entries_.push_back(Diagnostic{severity, code, std::move(component),
                                std::move(message), monotonic_seconds()});
}

std::size_t Diagnostics::count(Severity severity) const {
  std::size_t n = 0;
  for (const Diagnostic& d : entries_) n += (d.severity == severity);
  return n;
}

std::string Diagnostics::to_string() const {
  std::ostringstream oss;
  for (const Diagnostic& d : entries_) {
    char stamp[32];
    std::snprintf(stamp, sizeof(stamp), "[%8.2fs]", d.ts_sec);
    oss << stamp << " [" << severity_name(d.severity) << "] "
        << error_code_name(d.code) << ' ' << d.component << ": " << d.message
        << '\n';
  }
  return oss.str();
}

}  // namespace util
}  // namespace fs
