// perf_bench — end-to-end pipeline performance harness. Runs FriendSeeker
// on a synthetic preset with the observability subsystem live, then writes
// a machine-readable BENCH_pipeline.json: per-stage wall/CPU rollups from
// the trace spans, peak working-set estimate, and attack quality, so CI can
// track performance as a trajectory instead of a log line.
//
//   perf_bench [--preset tiny|gowalla|brightkite] [--out BENCH_pipeline.json]
//              [--metrics-out M.json] [--trace-out T.json] [--seed N]
//              [--threads N] [--scaling 1,2,4,8] [--universe sampled|full]
//   perf_bench --validate FILE    # schema-check an existing BENCH file
//
// --scaling re-runs the same attack once per listed thread count and emits
// a "scaling" section: wall time, speedup vs the first entry, and a digest
// of the run's outputs, so CI asserts byte-identity across thread counts in
// the same pass that tracks the speedup curve.
//
// The "kernel" section records the fs::kern ISA path the run executed on
// (active, requested via FS_KERNEL, and every supported path).
// "totals.cpu_ms" is process CPU (user + sys from getrusage) over the same
// window as "totals.wall_ms", so it can never exceed wall x threads; the
// validator enforces that bound with 10 % slack.
//
// --universe full extends the sampled test set with EVERY remaining user
// pair, the population an attacker actually faces; quality is still scored
// on the balanced subset (the extras have no labels to grade against).
// This is the regime candidate blocking exists for — the "blocking"
// section shows the scored-universe shrinkage.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "data/loader.h"
#include "eval/digest.h"
#include "eval/harness.h"
#include "eval/presets.h"
#include "kern/kern.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "par/pool.h"
#include "util/args.h"
#include "util/logging.h"
#include "util/runtime.h"

namespace {

using namespace fs;
namespace json = obs::json;

constexpr double kSchemaVersion = 8.0;

/// Runs the attack and grades the balanced test subset. Under --universe
/// full the test list carries unlabeled extension pairs after the labeled
/// prefix; they are predicted (that is the point) but not graded.
ml::Prf run_graded(eval::FriendSeekerAttack& attack,
                   const eval::Experiment& experiment) {
  obs::Span timer("eval.attack.run");
  const std::vector<int> predictions = attack.infer(
      experiment.dataset, experiment.split.train_pairs,
      experiment.split.train_labels, experiment.split.test_pairs);
  const std::vector<int> graded(
      predictions.begin(),
      predictions.begin() +
          static_cast<std::ptrdiff_t>(experiment.split.test_labels.size()));
  return ml::prf(experiment.split.test_labels, graded);
}

/// Appends every user pair absent from the sampled split to the test list:
/// the full O(n^2) candidate universe an unconstrained attacker scores.
void extend_to_full_universe(eval::Experiment& experiment) {
  std::vector<data::UserPair> known;
  known.reserve(experiment.split.train_pairs.size() +
                experiment.split.test_pairs.size());
  for (const auto& p : experiment.split.train_pairs)
    known.push_back(data::make_pair_ordered(p.first, p.second));
  for (const auto& p : experiment.split.test_pairs)
    known.push_back(data::make_pair_ordered(p.first, p.second));
  std::sort(known.begin(), known.end());
  const auto n =
      static_cast<data::UserId>(experiment.dataset.user_count());
  for (data::UserId a = 0; a < n; ++a)
    for (data::UserId b = a + 1; b < n; ++b) {
      const data::UserPair pair{a, b};
      if (!std::binary_search(known.begin(), known.end(), pair))
        experiment.split.test_pairs.push_back(pair);
    }
}

/// User + system CPU of the whole process (every pool thread included).
double process_cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 +
           static_cast<double>(tv.tv_usec) / 1000.0;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

std::vector<std::size_t> parse_scaling(const std::string& spec) {
  std::vector<std::size_t> threads;
  std::istringstream iss(spec);
  std::string token;
  while (std::getline(iss, token, ',')) {
    const unsigned long v = std::stoul(token);
    if (v == 0) throw std::invalid_argument("--scaling entries must be >= 1");
    threads.push_back(v);
  }
  if (threads.empty())
    throw std::invalid_argument("--scaling needs at least one thread count");
  return threads;
}

/// Checks one BENCH_pipeline.json against the schema this tool writes.
/// Throws ParseError with the offending key on any mismatch.
void validate_bench(const json::Value& root) {
  if (!root.is_object()) throw ParseError("root is not an object");
  if (root.at("schema_version").as_number() != kSchemaVersion)
    throw ParseError("schema_version != 8");
  root.at("preset").as_string();
  root.at("seed").as_number();
  const double threads = root.at("threads").as_number();
  if (threads < 1.0) throw ParseError("threads < 1");
  if (root.at("host_hardware_threads").as_number() < 1.0)
    throw ParseError("host_hardware_threads < 1");
  root.at("result_digest").as_string();
  root.at("final_graph_digest").as_string();
  const std::string universe = root.at("universe").as_string();
  if (universe != "sampled" && universe != "full")
    throw ParseError("universe must be 'sampled' or 'full'");

  const json::Value& blocking = root.at("blocking");
  const double universe_pairs = blocking.at("universe_pairs").as_number();
  const double scored_pairs = blocking.at("scored_pairs").as_number();
  const double pruned_pairs = blocking.at("pruned_pairs").as_number();
  if (universe_pairs < 0.0 || scored_pairs < 0.0 || pruned_pairs < 0.0)
    throw ParseError("blocking pair counts must be non-negative");
  if (scored_pairs + pruned_pairs != universe_pairs)
    throw ParseError("blocking: scored + pruned != universe");
  if (blocking.at("prune_ratio").as_number() < 1.0)
    throw ParseError("blocking.prune_ratio < 1");
  if (blocking.at("forced_train_pairs").as_number() < 0.0)
    throw ParseError("blocking.forced_train_pairs is negative");

  const json::Value& quality = root.at("quality");
  for (const char* key : {"f1", "precision", "recall"}) {
    const double v = quality.at(key).as_number();
    if (v < 0.0 || v > 1.0)
      throw ParseError(std::string("quality.") + key + " outside [0, 1]");
  }

  const json::Value& kernel = root.at("kernel");
  const std::string kernel_path = kernel.at("path").as_string();
  if (kernel_path != "scalar" && kernel_path != "avx2" &&
      kernel_path != "avx512")
    throw ParseError("kernel.path must be scalar, avx2, or avx512");
  kernel.at("requested").as_string();
  const json::Array& available = kernel.at("available").as_array();
  if (available.empty() || available.front().as_string() != "scalar")
    throw ParseError("kernel.available must start with scalar");
  bool active_listed = false;
  for (const json::Value& p : available)
    active_listed = active_listed || p.as_string() == kernel_path;
  if (!active_listed)
    throw ParseError("kernel.path is not in kernel.available");

  const json::Array& stages = root.at("stages").as_array();
  if (stages.empty()) throw ParseError("stages is empty");
  for (const json::Value& stage : stages) {
    stage.at("name").as_string();
    for (const char* key : {"count", "wall_ms", "cpu_ms", "throughput"})
      if (stage.at(key).as_number() < 0.0)
        throw ParseError(std::string("stage ") +
                         stage.at("name").as_string() + ": negative " + key);
  }

  const double wall_ms = root.at("totals").at("wall_ms").as_number();
  const double cpu_ms = root.at("totals").at("cpu_ms").as_number();
  if (wall_ms < 0.0) throw ParseError("totals.wall_ms is negative");
  if (cpu_ms < 0.0) throw ParseError("totals.cpu_ms is negative");
  if (cpu_ms > wall_ms * threads * 1.1)
    throw ParseError("totals.cpu_ms exceeds wall_ms x threads x 1.1");
  if (root.at("peak_memory_bytes").as_number() < 0.0)
    throw ParseError("peak_memory_bytes is negative");

  // The scaling section is optional (absent when --scaling was not given).
  if (root.contains("scaling")) {
    const json::Array& scaling = root.at("scaling").as_array();
    if (scaling.empty()) throw ParseError("scaling is empty");
    for (const json::Value& entry : scaling) {
      if (entry.at("threads").as_number() < 1.0)
        throw ParseError("scaling entry: threads < 1");
      if (entry.at("wall_ms").as_number() < 0.0)
        throw ParseError("scaling entry: negative wall_ms");
      if (entry.at("speedup").as_number() < 0.0)
        throw ParseError("scaling entry: negative speedup");
      const double f1 = entry.at("f1").as_number();
      if (f1 < 0.0 || f1 > 1.0)
        throw ParseError("scaling entry: f1 outside [0, 1]");
      entry.at("result_digest").as_string();
      if (!entry.at("identical").as_bool())
        throw ParseError("scaling entry: results differ across thread "
                         "counts (determinism contract broken)");
    }
  }
}

int run_validate(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perf_bench: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream oss;
  oss << in.rdbuf();
  try {
    validate_bench(json::parse(oss.str()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_bench: %s fails schema: %s\n", path.c_str(),
                 e.what());
    return 1;
  }
  std::printf("%s: schema ok\n", path.c_str());
  return 0;
}

struct RunOutcome {
  double wall_ms = 0.0;
  ml::Prf prf;
  std::string digest;
  std::size_t peak = 0;
};

RunOutcome run_attack_once(const eval::BenchPreset& preset,
                           const eval::Experiment& experiment,
                           std::size_t threads) {
  par::set_threads(threads);
  eval::BenchPreset run = preset;
  runtime::ExecutionContext context;
  run.seeker.context = &context;
  obs::Span span("perf_bench.run");
  eval::FriendSeekerAttack attack(run.seeker);
  RunOutcome outcome;
  outcome.prf = run_graded(attack, experiment);
  span.end();
  outcome.wall_ms = span.milliseconds();
  outcome.digest = eval::result_digest(attack.last_result());
  outcome.peak = context.peak_charged();
  return outcome;
}

int run_bench(const util::ArgParser& args) {
  obs::set_metrics_enabled(true);
  obs::tracer().enable();

  const std::string preset_name = args.get("preset");
  eval::BenchPreset preset = eval::bench_preset(preset_name);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int_in("seed", 0, std::numeric_limits<long long>::max()));
  preset.world.seed += seed;
  preset.seeker.seed += seed;
  par::set_threads(static_cast<std::size_t>(args.get_int_in(
      "threads", 0, static_cast<long long>(par::kMaxThreads))));
  const std::size_t main_threads = par::threads();

  const std::string universe_arg = args.get("universe");
  if (universe_arg != "sampled" && universe_arg != "full")
    throw std::invalid_argument("--universe must be sampled or full");

  runtime::ExecutionContext context;
  preset.seeker.context = &context;

  const double cpu_before_ms = process_cpu_ms();
  obs::Span total_span("perf_bench.total");
  eval::Experiment experiment =
      eval::make_experiment(preset.world, {}, 0.7, 7 + seed);
  if (universe_arg == "full") extend_to_full_universe(experiment);
  eval::FriendSeekerAttack attack(preset.seeker);
  const ml::Prf prf = run_graded(attack, experiment);
  total_span.end();
  // Span::milliseconds() keeps counting after end(), so both totals are
  // read here, at the end of the measured window.
  const double total_wall_ms = total_span.milliseconds();
  const double total_cpu_ms = process_cpu_ms() - cpu_before_ms;
  const std::string main_digest = eval::result_digest(attack.last_result());

  // Per-stage rollup from the spans the pipeline recorded.
  json::Array stages;
  for (const auto& [name, agg] : obs::tracer().aggregate()) {
    json::Object stage;
    stage["name"] = name;
    stage["count"] = agg.count;
    stage["wall_ms"] = agg.wall_ms;
    stage["cpu_ms"] = agg.cpu_ms;
    stage["throughput"] =
        agg.wall_ms > 0.0
            ? static_cast<double>(agg.count) * 1000.0 / agg.wall_ms
            : 0.0;
    stages.emplace_back(std::move(stage));
  }

  json::Object quality;
  quality["f1"] = prf.f1;
  quality["precision"] = prf.precision;
  quality["recall"] = prf.recall;

  json::Object totals;
  totals["wall_ms"] = total_wall_ms;
  totals["cpu_ms"] = total_cpu_ms;

  const core::FriendSeekerResult& last = attack.last_result();
  json::Object blocking;
  blocking["universe_pairs"] = last.blocking.universe_pairs;
  blocking["scored_pairs"] = last.blocking.scored_pairs;
  blocking["pruned_pairs"] = last.blocking.pruned_pairs;
  blocking["forced_train_pairs"] = last.blocking.forced_pairs;
  blocking["hop_candidates"] = last.blocking.hop_candidates;
  blocking["prune_ratio"] =
      last.blocking.scored_pairs > 0
          ? static_cast<double>(last.blocking.universe_pairs) /
                static_cast<double>(last.blocking.scored_pairs)
          : 1.0;

  json::Object kernel;
  kernel["path"] = std::string(kern::path_name(kern::active_path()));
  kernel["requested"] = kern::requested_path().empty()
                            ? std::string("auto")
                            : kern::requested_path();
  {
    json::Array available;
    for (const kern::IsaPath p : kern::supported_paths())
      available.emplace_back(std::string(kern::path_name(p)));
    kernel["available"] = std::move(available);
  }

  json::Object root;
  root["schema_version"] = kSchemaVersion;
  root["preset"] = preset_name;
  root["seed"] = seed;
  root["users"] = preset.world.user_count;
  root["threads"] = main_threads;
  root["host_hardware_threads"] =
      std::max(1u, std::thread::hardware_concurrency());
  root["result_digest"] = main_digest;
  root["final_graph_digest"] = eval::graph_digest(last.final_graph);
  root["universe"] = universe_arg;
  root["kernel"] = std::move(kernel);
  root["blocking"] = std::move(blocking);
  root["quality"] = std::move(quality);
  root["stages"] = std::move(stages);
  root["totals"] = std::move(totals);
  root["peak_memory_bytes"] = context.peak_charged();

  // Scaling sweep: one full re-run per requested thread count, after the
  // stage rollup above so its spans don't pollute the per-stage numbers.
  // Every run must reproduce the first run's digest bit for bit.
  if (!args.get("scaling").empty()) {
    json::Array scaling;
    std::string reference_digest;
    double reference_wall = 0.0;
    for (std::size_t threads : parse_scaling(args.get("scaling"))) {
      const RunOutcome outcome =
          run_attack_once(preset, experiment, threads);
      if (reference_digest.empty()) {
        reference_digest = outcome.digest;
        reference_wall = outcome.wall_ms;
      }
      json::Object entry;
      entry["threads"] = threads;
      entry["wall_ms"] = outcome.wall_ms;
      entry["speedup"] =
          outcome.wall_ms > 0.0 ? reference_wall / outcome.wall_ms : 0.0;
      entry["f1"] = outcome.prf.f1;
      entry["result_digest"] = outcome.digest;
      entry["identical"] = outcome.digest == reference_digest;
      std::printf("scaling: threads=%zu wall=%.0fms f1=%.4f digest=%s%s\n",
                  threads, outcome.wall_ms, outcome.prf.f1,
                  outcome.digest.c_str(),
                  outcome.digest == reference_digest ? "" : " MISMATCH");
      scaling.emplace_back(std::move(entry));
    }
    root["scaling"] = std::move(scaling);
    par::set_threads(main_threads);
  }

  const std::string out_path = args.get("out");

  const json::Value bench(std::move(root));
  validate_bench(bench);  // never ship a file the validator would reject
  json::write_file(out_path, bench, 2);
  std::printf("wrote %s (preset=%s F1=%.4f wall=%.0fms)\n", out_path.c_str(),
              preset_name.c_str(), prf.f1, total_wall_ms);

  if (!args.get("metrics-out").empty())
    obs::write_metrics_files(obs::metrics(), args.get("metrics-out"));
  if (!args.get("trace-out").empty())
    obs::tracer().write_chrome_json(args.get("trace-out"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args;
  args.add_option("preset", "gowalla", "tiny | gowalla | brightkite");
  args.add_option("out", "BENCH_pipeline.json", "benchmark output file");
  args.add_option("metrics-out", "",
                  "also write the metrics snapshot (JSON + .prom twin)");
  args.add_option("trace-out", "", "also write the Chrome trace JSON");
  args.add_option("seed", "0", "seed offset for world and model RNG");
  args.add_option("threads", "0",
                  "worker threads for the measured run (0 = FS_THREADS env "
                  "or hardware concurrency)");
  args.add_option("scaling", "",
                  "comma-separated thread counts (e.g. 1,2,4,8): re-run per "
                  "count and emit the scaling section with byte-identity "
                  "digests");
  args.add_option("universe", "sampled",
                  "pair universe: sampled (balanced eval protocol) | full "
                  "(every user pair; quality still graded on the balanced "
                  "subset)");
  args.add_option("validate", "",
                  "schema-check FILE instead of running the benchmark");
  args.add_flag("help", "show options");
  try {
    args.parse(argc, argv);
    if (args.get_flag("help")) {
      std::fputs(args.help().c_str(), stderr);
      return 0;
    }
    if (!args.get("validate").empty())
      return run_validate(args.get("validate"));
    util::set_log_level(util::LogLevel::kInfo);
    return run_bench(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_bench: %s\n", e.what());
    return 1;
  }
}
