// fs_bench — the FriendSeeker benchmark.
//
//   fs_bench --workload attack_sampled|attack_full|serve_replay
//            [--seed N] [--seconds S] [--trace 0|1] [--quick]
//            [--out-dir DIR] [--commit SHA]
//   fs_bench [--seed N] [--quick] ...   # every workload, each in a child
//
// One workload run measures for --seconds and prints, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0 (untraced runs of the public attack/serve entry
// points) or the per-layer metrics with --trace 1 (a traced layer drive).
// Human-readable tables go to stderr; the full result, with a provenance
// block, goes to DIR/<workload>.<e2e|layers>.json and the drive's Chrome
// trace to DIR/<workload>.trace.json. Exit code 1 means a correctness gate
// failed; any other failure exits 2 without printing a result.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "eval/digest.h"
#include "kern/kern.h"
#include "obs/trace.h"
#include "par/pool.h"
#include "util/args.h"

#ifndef FS_BENCH_BUILD_TYPE
#define FS_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

namespace json = fs::obs::json;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json and benchmark/README.md.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},      {"throughput_per_s", "1/s"}, {"p50_ms", "ms"},
    {"peak_rss_mb", "MB"}, {"f1", "ratio"},
};

// A layer a workload does not exercise reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"data.load_ms", "ms"},
    {"data.rows_per_s", "1/s"},
    {"eval.split_ms", "ms"},
    {"geo.division_ms", "ms"},
    {"geo.grids", "count"},
    {"geo.slots", "count"},
    {"joc.dim", "count"},
    {"block.index_ms", "ms"},
    {"block.filter_ms", "ms"},
    {"block.scored_pairs", "count"},
    {"block.prune_ratio", "ratio"},
    {"block.cache_hit_rate", "ratio"},
    {"block.cache_mb", "MB"},
    {"joc.fill_ms", "ms"},
    {"joc.rows_per_s", "1/s"},
    {"joc.matrix_mb", "MB"},
    {"presence.train_ms", "ms"},
    {"nn.ae_gflop", "GFLOP"},
    {"nn.ae_gflops", "GFLOP/s"},
    {"presence.encode_ms", "ms"},
    {"knn.predict_ms", "ms"},
    {"knn.queries_per_s", "1/s"},
    {"social.feature_ms", "ms"},
    {"social.pairs_per_s", "1/s"},
    {"svm.fit_ms", "ms"},
    {"svm.decision_ms", "ms"},
    {"svm.train_rows", "count"},
    {"svm.decision_rows_per_s", "1/s"},
    {"pipeline.iterations", "count"},
    {"pipeline.ckpt_save_ms", "ms"},
    {"pipeline.bookkeeping_ms", "ms"},
    {"pipeline.unattributed_frac", "ratio"},
    {"runtime.charged_peak_mb", "MB"},
    {"par.threads", "count"},
    {"stream.ingest_us", "us"},
    {"stream.tick_ms_p50", "ms"},
    {"stream.tick_ms_p99", "ms"},
    {"stream.decided_pairs_per_s", "1/s"},
    {"stream.dirty_pairs_max", "count"},
    {"stream.flip_ratio", "ratio"},
    {"stream.division_rebuilds", "count"},
    {"stream.journal_append_us", "us"},
    {"stream.journal_sync_ms", "ms"},
    {"stream.snapshot_ms_p50", "ms"},
    {"stream.snapshot_mb", "MB"},
    {"stream.load_snapshot_ms", "ms"},
    {"stream.recover_journal_ms", "ms"},
    {"serve.gen_lag_ms_p99", "ms"},
    {"serve.backlog_end", "count"},
    {"serve.recover_ms", "ms"},
};

constexpr const char* kWorkloads[] = {"attack_sampled", "attack_full",
                                      "serve_replay"};

const MetricSpec* find_spec(const std::string& name) {
  for (const MetricSpec& s : kEndToEnd)
    if (name == s.name) return &s;
  for (const MetricSpec& s : kPerLayer)
    if (name == s.name) return &s;
  return nullptr;
}

std::string env_or_empty(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? std::string() : std::string(v);
}

json::Object provenance(const fsb::Options& options,
                        const std::string& commit) {
  json::Object p;
  p["nproc"] = std::max(1u, std::thread::hardware_concurrency());
  p["threads"] = fs::par::threads();
  p["kern_active"] =
      std::string(fs::kern::path_name(fs::kern::active_path()));
  json::Array available;
  for (const fs::kern::IsaPath path : fs::kern::supported_paths())
    available.emplace_back(std::string(fs::kern::path_name(path)));
  p["kern_available"] = std::move(available);
  p["env_FS_KERNEL"] = env_or_empty("FS_KERNEL");
  p["env_FS_THREADS"] = env_or_empty("FS_THREADS");
  p["toolchain"] = fs::eval::toolchain_fingerprint();
  p["build_type"] = std::string(FS_BENCH_BUILD_TYPE);
  p["commit"] = commit;
  p["seed"] = options.seed;
  p["seconds"] = options.seconds;
  p["quick"] = options.quick;
  return p;
}

/// Runs one workload in this process and prints its result line.
int run_one(const fsb::Options& options, const std::string& commit) {
  const std::filesystem::path out_dir(options.out_dir);
  std::filesystem::create_directories(out_dir);
  fsb::Options run = options;
  run.work_dir = (out_dir / ("work-" + options.workload + "-" +
                             std::to_string(::getpid())))
                     .string();
  std::filesystem::remove_all(run.work_dir);
  std::filesystem::create_directories(run.work_dir);
  struct WorkDirGuard {
    std::string path;
    ~WorkDirGuard() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } guard{run.work_dir};

  fsb::Outcome outcome;
  if (options.workload == "attack_sampled")
    outcome = fsb::run_attack(run, false);
  else if (options.workload == "attack_full")
    outcome = fsb::run_attack(run, true);
  else if (options.workload == "serve_replay")
    outcome = fsb::run_serve(run);
  else
    throw std::invalid_argument("unknown --workload '" + options.workload +
                                "' (attack_sampled | attack_full | "
                                "serve_replay)");

  const std::string kind = options.trace ? "layers" : "e2e";
  if (options.trace)
    fs::obs::tracer().write_chrome_json(
        (out_dir / (options.workload + ".trace.json")).string());

  // The reported set is exactly one catalogue; an end-to-end metric a
  // workload failed to produce is a bug, so it fails the run.
  json::Object reported;
  const auto report = [&](const MetricSpec& spec) {
    const auto it = outcome.metrics.find(spec.name);
    if (it == outcome.metrics.end() && !options.trace)
      outcome.gate_failures.push_back(std::string("missing metric ") +
                                      spec.name);
    json::Object m;
    m["value"] = it == outcome.metrics.end() ? 0.0 : it->second;
    m["unit"] = spec.unit;
    reported[spec.name] = std::move(m);
  };
  if (options.trace)
    for (const MetricSpec& spec : kPerLayer) report(spec);
  else
    for (const MetricSpec& spec : kEndToEnd) report(spec);
  const bool correct = outcome.gate_failures.empty() && outcome.failed == 0;

  std::fprintf(stderr, "\n== %s (%s, seed %llu) ==\n",
               options.workload.c_str(), kind.c_str(),
               static_cast<unsigned long long>(options.seed));
  for (const auto& [name, value] : outcome.metrics) {
    const MetricSpec* spec = find_spec(name);
    std::fprintf(stderr, "  %-30s %16.6g %s\n", name.c_str(), value,
                 spec != nullptr ? spec->unit : "?");
  }
  for (const std::string& gate : outcome.gate_failures)
    std::fprintf(stderr, "  GATE FAILED: %s\n", gate.c_str());
  std::fprintf(stderr, "  attempted %llu, failed %llu, correct %s\n",
               static_cast<unsigned long long>(outcome.attempted),
               static_cast<unsigned long long>(outcome.failed),
               correct ? "yes" : "NO");

  json::Object all;
  for (const auto& [name, value] : outcome.metrics) {
    const MetricSpec* spec = find_spec(name);
    json::Object m;
    m["value"] = value;
    m["unit"] = spec != nullptr ? spec->unit : "?";
    all[name] = std::move(m);
  }
  json::Array gates;
  for (const std::string& gate : outcome.gate_failures)
    gates.emplace_back(gate);
  json::Object file;
  file["workload"] = options.workload;
  file["kind"] = kind;
  file["provenance"] = provenance(options, commit);
  file["correct"] = correct;
  file["attempted"] = outcome.attempted;
  file["failed"] = outcome.failed;
  file["gate_failures"] = std::move(gates);
  file["metrics"] = std::move(all);
  file["details"] = std::move(outcome.details);
  json::write_file(
      (out_dir / (options.workload + "." + kind + ".json")).string(),
      json::Value(std::move(file)));

  json::Object line;
  line["correct"] = correct;
  line["attempted"] = outcome.attempted;
  line["failed"] = outcome.failed;
  line["metrics"] = std::move(reported);
  std::fflush(stderr);
  std::printf("%s\n", json::Value(std::move(line)).dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// Every workload, end-to-end then per-layer, each in its own process so
/// peak RSS and the process-wide tracer never leak between runs.
int run_all(const fsb::Options& options, const std::string& commit) {
  const std::string self = fsb::self_exe();
  int worst = 0;
  for (const char* workload : kWorkloads) {
    for (const char* trace : {"0", "1"}) {
      std::vector<std::string> args = {
          self,          "--workload", workload,
          "--seed",      std::to_string(options.seed),
          "--seconds",   std::to_string(options.seconds),
          "--trace",     trace,
          "--out-dir",   options.out_dir,
          "--commit",    commit};
      if (options.quick) args.push_back("--quick");
      const int code = fsb::run_child(args);
      if (code != 0)
        std::fprintf(stderr, "fs_bench: %s --trace %s exited %d\n", workload,
                     trace, code);
      worst = std::max(worst, code);
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  fs::util::ArgParser args;
  args.add_option("workload", "",
                  "attack_sampled | attack_full | serve_replay (empty = all, "
                  "each in a child process)");
  args.add_option("seed", "0", "input seed");
  args.add_option("seconds", "30", "measured seconds per run");
  args.add_option("trace", "0",
                  "0 = end-to-end metrics, 1 = per-layer metrics");
  args.add_option("out-dir", "benchmark/out", "result directory");
  args.add_option("commit", "unknown", "source revision for provenance");
  args.add_option("attack-repeat", "",
                  "internal: run one timed attack over the inputs in "
                  "--work-dir and write its result to this file");
  args.add_option("work-dir", "", "internal: inputs for --attack-repeat");
  args.add_flag("quick", "tiny inputs and one repeat (smoke test)");
  args.add_flag("help", "show options");
  try {
    args.parse(argc, argv);
    if (args.get_flag("help")) {
      std::fputs(args.help().c_str(), stderr);
      return 0;
    }
    fsb::Options options;
    options.workload = args.get("workload");
    if (args.get_int("seed") < 0)
      throw std::invalid_argument("--seed must be >= 0");
    options.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    options.quick = args.get_flag("quick");

    // FS_THREADS, when set, wins (set_threads(0) reads it); otherwise
    // min(nproc, 4).
    fs::par::set_threads(
        env_or_empty("FS_THREADS").empty()
            ? std::min<std::size_t>(
                  4, std::max(1u, std::thread::hardware_concurrency()))
            : 0);
    if (const std::string result = args.get("attack-repeat"); !result.empty()) {
      options.work_dir = args.get("work-dir");
      if (options.workload != "attack_sampled" &&
          options.workload != "attack_full")
        throw std::invalid_argument("--attack-repeat needs an attack workload");
      fsb::attack_repeat(options, options.workload == "attack_full", result);
      return 0;
    }
    // A smoke run is exactly one repeat of everything, not a timed window.
    options.seconds = options.quick ? 0.0 : args.get_double("seconds");
    if (!options.quick && !(options.seconds > 0.0))
      throw std::invalid_argument("--seconds must be > 0");
    const std::string trace = args.get("trace");
    if (trace != "0" && trace != "1")
      throw std::invalid_argument("--trace must be 0 or 1");
    options.trace = trace == "1";
    options.out_dir = args.get("out-dir");
    const std::string commit = args.get("commit");
    if (options.workload.empty()) return run_all(options, commit) == 0 ? 0 : 1;
    return run_one(options, commit);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fs_bench: %s\n", e.what());
    return 2;
  }
}
