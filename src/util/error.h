// Structured error taxonomy and a diagnostics sink for the whole pipeline.
//
// Every failure the runtime can recover from (or must report precisely)
// carries an ErrorCode, so callers can branch on *what kind* of thing went
// wrong instead of string-matching `what()`. All types derive from
// std::runtime_error, so legacy catch sites keep working.
//
// `Diagnostics` is the companion sink: subsystems that degrade gracefully
// (loader quarantining records, autoencoder backing off a diverging run,
// pipeline falling back to its phase-1 graph) report what happened into it
// instead of throwing, and the caller decides whether the run is usable.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace fs {

enum class ErrorCode {
  kIo,                // file missing, unreadable, write failed
  kParse,             // malformed text input (timestamps, numbers, lines)
  kNumeric,           // NaN/Inf loss, gradient, feature, or score
  kCorruptCheckpoint, // bad magic/version/CRC/truncation in a checkpoint
  kConvergence,       // training diverged beyond the retry budget
  kCancelled,         // cooperative cancellation (SIGINT/SIGTERM, caller)
  kBudget,            // deadline, memory, or iteration budget exhausted
};

const char* error_code_name(ErrorCode code);

/// Base of the taxonomy; `what()` is prefixed with the code name.
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& message);
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

class IoError : public Error {
 public:
  explicit IoError(const std::string& message)
      : Error(ErrorCode::kIo, message) {}
};

class ParseError : public Error {
 public:
  explicit ParseError(const std::string& message)
      : Error(ErrorCode::kParse, message) {}
};

class NumericError : public Error {
 public:
  explicit NumericError(const std::string& message)
      : Error(ErrorCode::kNumeric, message) {}
};

class CorruptCheckpoint : public Error {
 public:
  explicit CorruptCheckpoint(const std::string& message)
      : Error(ErrorCode::kCorruptCheckpoint, message) {}
};

class ConvergenceError : public Error {
 public:
  explicit ConvergenceError(const std::string& message)
      : Error(ErrorCode::kConvergence, message) {}
};

/// Thrown at a cooperative cancellation point once cancellation was
/// requested; the run stops at the next safe boundary instead of mid-write.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& message)
      : Error(ErrorCode::kCancelled, message) {}
};

/// Thrown when a wall-clock or memory budget would be exceeded; callers
/// with last-good state degrade instead of propagating.
class BudgetError : public Error {
 public:
  explicit BudgetError(const std::string& message)
      : Error(ErrorCode::kBudget, message) {}
};

namespace util {

enum class Severity { kInfo, kWarning, kError };

const char* severity_name(Severity severity);

struct Diagnostic {
  Severity severity = Severity::kInfo;
  ErrorCode code = ErrorCode::kIo;
  std::string component;  // e.g. "loader", "autoencoder", "pipeline"
  std::string message;
  /// Seconds since process start (util::monotonic_seconds) when the event
  /// was reported; orders diagnostics against log lines and trace spans.
  double ts_sec = 0.0;
};

/// Append-only event sink. Copyable so a pipeline can hand its collected
/// diagnostics to the caller inside the result struct.
class Diagnostics {
 public:
  void report(Severity severity, ErrorCode code, std::string component,
              std::string message);

  const std::vector<Diagnostic>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  std::size_t count(Severity severity) const;
  bool has_errors() const { return count(Severity::kError) > 0; }

  /// One line per entry: "[severity] code component: message".
  std::string to_string() const;

  void clear() { entries_.clear(); }

 private:
  std::vector<Diagnostic> entries_;
};

}  // namespace util
}  // namespace fs
