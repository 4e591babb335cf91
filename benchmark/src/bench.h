// Shared pieces of the FriendSeeker benchmark: run options, the outcome a
// workload hands back to main, and the small statistics, timing and
// child-process helpers the workloads share.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"

namespace fsb {

using Clock = std::chrono::steady_clock;

/// Set-up runs this many times per run, in groups of kSetupGroup spread
/// over the window, and reports the median, so neither one scheduling
/// hiccup nor a few slow seconds of the host can move the number.
inline constexpr std::size_t kSetupRepeats = 21;
inline constexpr std::size_t kSetupGroup = 7;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 30.0;  // measured part of one run
  bool trace = false;     // false: end-to-end metrics, true: per-layer
  bool quick = false;     // tiny inputs, one repeat (smoke test)
  std::string out_dir;    // results, traces and the per-run work dir
  std::string work_dir;   // scratch inputs/journals, removed by main
};

/// What one workload run measured. `metrics` holds every metric the run
/// produced (end-to-end or per-layer, by name); `gate_failures` lists every
/// correctness gate that did not hold; `details` goes to the result file.
struct Outcome {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;
  fs::obs::json::Object details;
};

Outcome run_attack(const Options& options, bool full_universe);
Outcome run_serve(const Options& options);

/// One timed attack in a process of its own (the parent's inputs are in
/// options.work_dir); writes its result as JSON to `result_path`.
void attack_repeat(const Options& options, bool full_universe,
                   const std::string& result_path);

/// fork + exec of `args` (args[0] is the program); returns its exit code.
int run_child(const std::vector<std::string>& args);

/// Path of the running fs_bench binary, for re-running it as a child.
std::string self_exe();

inline fs::obs::json::Array json_array(const std::vector<double>& values) {
  return fs::obs::json::Array(values.begin(), values.end());
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of the samples (0 for none).
double median(std::vector<double> samples);

/// Linear-interpolated percentile, p in [0, 100] (0 for no samples).
double percentile(std::vector<double> samples, double p);

/// Process resident-set high-water mark (VmHWM) in MiB.
double peak_rss_mb();

/// Repeat pacing for one run: keeps going while the next repeat, estimated
/// from the slowest one so far, still ends inside the measured window, and
/// always until `min_repeats` have run.
class RepeatBudget {
 public:
  RepeatBudget(double seconds, std::size_t min_repeats)
      : seconds_(seconds), min_repeats_(min_repeats) {}

  bool another() const;
  void record(double repeat_seconds);
  std::size_t repeats() const { return repeats_; }

 private:
  Clock::time_point start_ = Clock::now();
  double seconds_;
  std::size_t min_repeats_;
  std::size_t repeats_ = 0;
  double slowest_ = 0.0;
};

}  // namespace fsb
