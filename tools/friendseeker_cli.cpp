// friendseeker — command-line driver for the whole toolkit.
//
//   friendseeker generate  --preset gowalla --out DIR [--users N ...]
//   friendseeker stats     CHECKINS EDGES
//   friendseeker convert   CHECKINS EDGES --out STORE.fsst
//                          [--sigma S --tau D] [--permissive]
//                          [--min-checkins N --max-users N]
//   friendseeker attack    CHECKINS EDGES | --store STORE.fsst
//                          [--sigma S --tau D --dim D --k K]
//                          [--blocking on|off|auto --block-hops H
//                           --block-slot-tolerance T]
//                          [--permissive] [--checkpoint-dir DIR [--resume]]
//                          [--deadline-sec S --max-memory-mb M
//                           --max-iterations N]
//                          [--metrics-out M.json --trace-out T.json
//                           --metrics-interval-sec S]
//   friendseeker obfuscate CHECKINS EDGES --mechanism M --ratio R --out DIR
//   friendseeker serve     CHECKINS [EDGES] --source replay|tail
//                          [--listen HOST:PORT [--max-conns N
//                           --idle-timeout-ms MS]]
//                          [--journal-dir DIR --snapshot-every N]
//                          [--tick-ms MS --staleness-budget-ms MS]
//                          [--events-per-tick N --ring-capacity N
//                           --backpressure block|shed]
//                          [--max-ticks N --lateness-budget-sec S]
//                          [--finalize]
//                          [--expect-digest HEX]
//   friendseeker --list-failpoints
//
// Mechanisms: hide | blur-in | blur-cross | friendguard.
//
// `attack` installs SIGINT/SIGTERM handlers: an interrupted run stops at
// the next cooperative cancellation point, keeps its last checkpoint, and
// exits with status 130. A run truncated by --deadline-sec or
// --max-memory-mb degrades gracefully (last-good graph, degradation report
// on stderr) and exits 0.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>

#include "block/candidate_gen.h"
#include "data/defense.h"
#include "data/loader.h"
#include "data/obfuscation.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "eval/digest.h"
#include "eval/harness.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "par/pool.h"
#include "store/convert.h"
#include "store/store.h"
#include "stream/daemon.h"
#include "stream/source.h"
#include "util/args.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/runtime.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace fs;

// Upper bounds for range-checked integer options (util::ArgParser::
// get_int_in), so a value never wraps in the cast to its target type.
constexpr long long kMaxInt = std::numeric_limits<int>::max();
constexpr long long kMaxCount = std::numeric_limits<long long>::max();
constexpr long long kMaxThreads = 1024;
// --max-memory-mb is scaled by 2^20 into a std::size_t byte count.
constexpr long long kMaxMemoryMb =
    static_cast<long long>(std::numeric_limits<std::size_t>::max() >> 20);

int usage() {
  std::fprintf(
      stderr,
      "usage: friendseeker <command> [options]\n\n"
      "commands:\n"
      "  generate   synthesize an MSN world and write SNAP-format files\n"
      "  stats      dataset statistics and co-presence census\n"
      "  convert    SNAP files -> checksummed columnar store (.fsst)\n"
      "  attack     run FriendSeeker (and baselines) on a dataset\n"
      "  obfuscate  apply a countermeasure and write the perturbed dataset\n"
      "  serve      stream check-ins through the crash-safe ingestion "
      "daemon\n"
      "\nglobal flags:\n"
      "  --list-failpoints  print the compiled-in fault-injection registry\n"
      "\nrun 'friendseeker <command> --help' for command options\n");
  return 2;
}

int list_failpoints() {
  std::printf("compiled-in failpoints (activate via FS_FAILPOINTS, e.g.\n"
              "FS_FAILPOINTS=\"data.load.open=error;nn.train.nan=nan:"
              "limit=2\"):\n\n");
  for (const auto& fp : util::failpoint::known_failpoints())
    std::printf("  %-26s %-9s %s\n", fp.name, fp.actions, fp.description);
  std::printf("\nper-failpoint config: skip=N, limit=N, latency_ms=N; any "
              "entry also\naccepts the latency action (delay without "
              "failing).\n");
  return 0;
}

data::Dataset load_positional(const util::ArgParser& args,
                              const data::LoadOptions& options = {},
                              data::LoadReport* report = nullptr) {
  if (args.positional().size() < 2)
    throw std::invalid_argument("expected: CHECKINS EDGES");
  return data::load_checkins_snap(args.positional()[0], args.positional()[1],
                                  options, report);
}

int cmd_generate(int argc, char** argv) {
  util::ArgParser args;
  args.add_option("preset", "gowalla", "world preset: gowalla | brightkite");
  args.add_option("out", "world_out", "output directory");
  args.add_option("users", "0", "override user count (0 = preset)");
  args.add_option("pois", "0", "override POI count (0 = preset)");
  args.add_option("weeks", "0", "override observation weeks (0 = preset)");
  args.add_option("seed", "0", "override RNG seed (0 = preset)");
  args.add_flag("help", "show options");
  args.parse(argc, argv, 2);
  if (args.get_flag("help")) {
    std::fputs(args.help().c_str(), stderr);
    return 0;
  }

  data::SyntheticWorldConfig cfg = args.get("preset") == "brightkite"
                                       ? data::brightkite_like()
                                       : data::gowalla_like();
  if (const long long users = args.get_int_in("users", 0, kMaxCount))
    cfg.user_count = static_cast<std::size_t>(users);
  if (const long long pois = args.get_int_in("pois", 0, kMaxCount))
    cfg.poi_count = static_cast<std::size_t>(pois);
  if (const long long weeks = args.get_int_in("weeks", 0, kMaxInt))
    cfg.weeks = static_cast<int>(weeks);
  if (const long long seed = args.get_int_in("seed", 0, kMaxCount))
    cfg.seed = static_cast<std::uint64_t>(seed);

  const data::SyntheticWorld world = data::generate_world(cfg);
  const std::string dir = args.get("out");
  std::filesystem::create_directories(dir);
  data::save_checkins_snap(world.dataset, dir + "/checkins.txt",
                           dir + "/edges.txt");
  std::printf("wrote %s/checkins.txt (%zu records) and %s/edges.txt "
              "(%zu links)\n",
              dir.c_str(), world.dataset.checkin_count(), dir.c_str(),
              world.dataset.friendships().edge_count());
  return 0;
}

int cmd_stats(int argc, char** argv) {
  util::ArgParser args;
  args.add_option("store", "",
                  "read a columnar store (.fsst) instead of SNAP text; runs "
                  "full checksum verification and reports store internals");
  args.add_flag("help", "show options");
  args.parse(argc, argv, 2);
  if (args.get_flag("help")) {
    std::fprintf(stderr,
                 "usage: friendseeker stats CHECKINS EDGES | --store FILE\n");
    return 0;
  }
  data::Dataset ds;
  if (!args.get("store").empty()) {
    obs::Span verify_span("store.open_verify");
    const store::MappedStore mapped =
        store::MappedStore::open(args.get("store"), store::Verify::kFull);
    verify_span.end();
    obs::Span mat_span("store.materialize");
    ds = mapped.to_dataset();
    mat_span.end();
    const store::StoreHeader& h = mapped.header();
    util::Table store_table({"rows", "grids", "slots", "sigma", "tau h",
                             "file MB", "verify ms", "materialize ms"});
    store_table.new_row()
        .add(static_cast<std::size_t>(h.row_count))
        .add(static_cast<std::size_t>(h.grid_count))
        .add(static_cast<std::size_t>(h.slot_count))
        .add(static_cast<std::size_t>(h.sigma))
        .add(static_cast<double>(h.tau_seconds) / 3600.0, 1)
        .add(static_cast<double>(mapped.file_bytes()) / (1024.0 * 1024.0), 1)
        .add(verify_span.milliseconds(), 1)
        .add(mat_span.milliseconds(), 1);
    store_table.print("store (full verification: every payload checksum)");
    const data::LoadReport report = mapped.load_report();
    if (report.quarantined_checkins() > 0 || report.quarantined_edges() > 0)
      std::fprintf(stderr, "%s\n", report.summary().c_str());
    mapped.release_pages();
  } else {
    ds = load_positional(args);
  }
  const data::DatasetStats s = data::dataset_stats(ds);
  util::Table table({"pois", "users", "checkins", "checkins/user", "links"});
  table.new_row()
      .add(s.pois)
      .add(s.users)
      .add(s.checkins)
      .add(s.mean_checkins_per_user, 1)
      .add(s.links);
  table.print("dataset statistics");

  const eval::LabeledPairs pairs = eval::sample_candidate_pairs(ds);
  std::vector<data::UserPair> friends, strangers;
  for (std::size_t i = 0; i < pairs.pairs.size(); ++i)
    (pairs.labels[i] ? friends : strangers).push_back(pairs.pairs[i]);
  const auto census = data::co_presence_census(ds, friends, strangers);
  util::Table census_table(
      {"population", "CL&CF %", "CL only %", "CF only %", "neither %"});
  census_table.new_row()
      .add("friends")
      .add(census.friends[1][1] * 100, 1)
      .add(census.friends[1][0] * 100, 1)
      .add(census.friends[0][1] * 100, 1)
      .add(census.friends[0][0] * 100, 1);
  census_table.new_row()
      .add("non-friends")
      .add(census.non_friends[1][1] * 100, 1)
      .add(census.non_friends[1][0] * 100, 1)
      .add(census.non_friends[0][1] * 100, 1)
      .add(census.non_friends[0][0] * 100, 1);
  census_table.print("co-presence census (balanced pair sample)");
  return 0;
}

/// In-memory footprint of a materialized Dataset — what a store-backed run
/// actually keeps resident, as opposed to the store's file size (which
/// stays on disk; the mapping is dropped after materialization).
std::size_t dataset_resident_estimate(const data::Dataset& ds) {
  return ds.checkin_count() * sizeof(data::CheckIn) +
         ds.poi_count() * sizeof(data::Poi) +
         (ds.user_count() + 1) * sizeof(std::size_t) +
         ds.friendships().edge_count() * 2 * sizeof(graph::NodeId);
}

int cmd_convert(int argc, char** argv) {
  util::ArgParser args;
  args.add_option("out", "checkins.fsst", "store file to write");
  args.add_option("sigma", "45",
                  "quadtree leaf capacity baked into the cell column");
  args.add_option("tau", "1", "time-slot length in days for the slot column");
  args.add_option("min-checkins", "2",
                  "drop users with fewer check-ins (loader activity floor)");
  args.add_option("max-users", "0",
                  "cap on users after the activity floor (0 = unlimited)");
  args.add_option("deadline-sec", "0",
                  "wall-clock budget for the conversion (0 = unlimited)");
  args.add_flag("strict", "abort on the first malformed input line (default)");
  args.add_flag("permissive",
                "quarantine malformed input lines instead of aborting; the "
                "census is persisted into the store header");
  args.add_flag("help", "show options");
  args.parse(argc, argv, 2);
  if (args.get_flag("help")) {
    std::fprintf(stderr, "usage: friendseeker convert CHECKINS EDGES "
                         "[options]\n%s",
                 args.help().c_str());
    return 0;
  }
  if (args.get_flag("strict") && args.get_flag("permissive"))
    throw std::invalid_argument("--strict and --permissive are exclusive");
  if (args.positional().size() < 2)
    throw std::invalid_argument("expected: CHECKINS EDGES");
  util::set_log_level(util::LogLevel::kInfo);

  runtime::install_signal_handlers();
  runtime::ExecutionContext context;
  context.set_cancellation(&runtime::global_token());
  if (args.get_double("deadline-sec") > 0.0)
    context.set_deadline_seconds(args.get_double("deadline-sec"));

  store::ConvertOptions options;
  options.sigma =
      static_cast<std::size_t>(args.get_int_in("sigma", 0, kMaxCount));
  options.tau_seconds = static_cast<geo::Timestamp>(
      args.get_double("tau") * static_cast<double>(geo::kSecondsPerDay));
  options.load.strictness = args.get_flag("permissive")
                                ? data::Strictness::kPermissive
                                : data::Strictness::kStrict;
  options.load.min_checkins =
      static_cast<int>(args.get_int_in("min-checkins", 0, kMaxInt));
  options.load.max_users =
      static_cast<std::size_t>(args.get_int_in("max-users", 0, kMaxCount));
  options.load.context = &context;

  data::LoadReport report;
  const store::ConvertStats stats = store::convert_snap_to_store(
      args.positional()[0], args.positional()[1], args.get("out"), options,
      &report);
  if (args.get_flag("permissive") && (report.quarantined_checkins() > 0 ||
                                      report.quarantined_edges() > 0))
    std::fprintf(stderr, "%s\n", report.summary().c_str());
  std::printf("wrote %s: %zu rows, %zu users, %zu pois, %zu edges, "
              "%zu grids x %zu slots, %.1f MB\n",
              args.get("out").c_str(), stats.rows, stats.users, stats.pois,
              stats.edges, stats.grid_count, stats.slot_count,
              static_cast<double>(stats.file_bytes) / (1024.0 * 1024.0));
  return 0;
}

int cmd_attack(int argc, char** argv) {
  util::ArgParser args;
  args.add_option("sigma", "0", "max POIs per grid (0 = poi_count / 8)");
  args.add_option("tau", "7", "time-slot length in days");
  args.add_option("dim", "64", "presence feature dimension d");
  args.add_option("k", "3", "k-hop subgraph depth");
  args.add_option("iterations", "6", "max refinement iterations");
  args.add_option("blocking", "auto",
                  "candidate blocking: on | off | auto (auto prunes only "
                  "when the pair universe is large); pruned pairs are "
                  "predicted non-friend without scoring");
  args.add_option("block-hops", "2",
                  "keep pairs within this many hops of the strong "
                  "co-occurrence graph even without direct co-occurrence");
  args.add_option("block-slot-tolerance", "1",
                  "time-slot tolerance for cell co-occurrence blocking");
  args.add_option("store", "",
                  "read the dataset from a columnar store (.fsst, see "
                  "'convert') instead of CHECKINS EDGES positionals; the "
                  "store is fully verified, materialized, and its pages "
                  "dropped — memory accounting charges the resident "
                  "estimate, not the file size");
  args.add_option("max-iterations", "0",
                  "alias for --iterations (overrides it when > 0)");
  args.add_option("deadline-sec", "0",
                  "wall-clock budget for the whole run (0 = unlimited)");
  args.add_option("max-memory-mb", "0",
                  "budget for the estimated working-set memory "
                  "(0 = unlimited)");
  args.add_option("checkpoint-dir", "",
                  "checkpoint the working state here after each iteration");
  args.add_option("metrics-out", "",
                  "write metrics here as JSON (plus a .prom twin in "
                  "Prometheus text format)");
  args.add_option("trace-out", "",
                  "write a Chrome trace_event JSON here (loads in Perfetto "
                  "/ chrome://tracing)");
  args.add_option("metrics-interval-sec", "0",
                  "also rewrite --metrics-out every S seconds, so a killed "
                  "run keeps telemetry (0 = only at exit)");
  args.add_option("threads", "0",
                  "worker threads for parallel regions (0 = FS_THREADS env "
                  "or hardware concurrency); results are identical for any "
                  "value");
  args.add_flag("baselines", "also run the four baseline attacks");
  args.add_flag("strict", "abort on the first malformed input line (default)");
  args.add_flag("permissive",
                "quarantine malformed input lines instead of aborting");
  args.add_flag("resume", "resume from the last checkpoint in "
                          "--checkpoint-dir");
  args.add_flag("help", "show options");
  args.parse(argc, argv, 2);
  if (args.get_flag("help")) {
    std::fprintf(stderr, "usage: friendseeker attack CHECKINS EDGES "
                         "[options]\n%s",
                 args.help().c_str());
    return 0;
  }
  if (args.get_flag("strict") && args.get_flag("permissive"))
    throw std::invalid_argument("--strict and --permissive are exclusive");
  util::set_log_level(util::LogLevel::kInfo);
  par::set_threads(
      static_cast<std::size_t>(args.get_int_in("threads", 0, kMaxThreads)));

  // Observability: the registry is live whenever a metrics file was asked
  // for; the tracer only when a trace file was (spans stay two clock reads
  // otherwise).
  const std::string metrics_out = args.get("metrics-out");
  const std::string trace_out = args.get("trace-out");
  if (!metrics_out.empty()) obs::set_metrics_enabled(true);
  if (!trace_out.empty()) obs::tracer().enable();
  std::unique_ptr<obs::PeriodicSnapshotWriter> snapshots;
  if (!metrics_out.empty() &&
      args.get_double("metrics-interval-sec") > 0.0)
    snapshots = std::make_unique<obs::PeriodicSnapshotWriter>(
        metrics_out, args.get_double("metrics-interval-sec"));

  // Governance: route SIGINT/SIGTERM into the cancellation token and bound
  // the run by wall clock and estimated memory when asked to.
  runtime::install_signal_handlers();
  runtime::ExecutionContext context;
  context.set_cancellation(&runtime::global_token());
  if (args.get_double("deadline-sec") > 0.0)
    context.set_deadline_seconds(args.get_double("deadline-sec"));
  if (const long long mb = args.get_int_in("max-memory-mb", 0, kMaxMemoryMb))
    context.set_memory_limit(static_cast<std::size_t>(mb) << 20);

  const std::string store_path = args.get("store");
  data::LoadReport load_report;
  runtime::MemoryCharge dataset_charge;
  data::Dataset ds;
  if (!store_path.empty()) {
    // Store-backed path: full verification (every block CRC + the sort
    // fingerprint), materialize, then drop the mapping's pages. What the
    // run keeps is the materialized Dataset — so that is what the memory
    // budget is charged for (plus whatever pages the kernel still holds),
    // NOT the store's file size, which stays on disk.
    const store::MappedStore mapped = store::MappedStore::open(store_path);
    load_report = mapped.load_report();
    ds = mapped.to_dataset();
    mapped.release_pages();
    dataset_charge = runtime::MemoryCharge(
        &context, dataset_resident_estimate(ds) + mapped.resident_bytes(),
        "store.dataset");
  } else {
    data::LoadOptions load_options;
    load_options.strictness = args.get_flag("permissive")
                                  ? data::Strictness::kPermissive
                                  : data::Strictness::kStrict;
    load_options.context = &context;
    ds = load_positional(args, load_options, &load_report);
  }
  if (args.get_flag("permissive") &&
      (load_report.quarantined_checkins() > 0 ||
       load_report.quarantined_edges() > 0))
    std::fprintf(stderr, "%s\n", load_report.summary().c_str());
  const eval::Experiment experiment = eval::make_experiment(
      ds, store_path.empty() ? args.positional()[0] : store_path);

  core::FriendSeekerConfig cfg = eval::default_seeker_config();
  const long long sigma = args.get_int_in("sigma", 0, kMaxCount);
  cfg.sigma = sigma > 0 ? static_cast<std::size_t>(sigma)
                        : std::max<std::size_t>(40, ds.poi_count() / 8);
  cfg.tau_days = args.get_double("tau");
  cfg.presence.feature_dim =
      static_cast<std::size_t>(args.get_int_in("dim", 0, kMaxCount));
  cfg.k = static_cast<int>(args.get_int_in("k", 0, kMaxInt));
  const long long max_iterations =
      args.get_int_in("max-iterations", 0, kMaxInt);
  cfg.max_iterations =
      static_cast<int>(max_iterations > 0
                           ? max_iterations
                           : args.get_int_in("iterations", 0, kMaxInt));
  const std::string blocking = args.get("blocking");
  if (blocking == "on")
    cfg.blocking.mode = block::BlockingMode::kOn;
  else if (blocking == "off")
    cfg.blocking.mode = block::BlockingMode::kOff;
  else if (blocking == "auto")
    cfg.blocking.mode = block::BlockingMode::kAuto;
  else
    throw std::invalid_argument("--blocking must be on, off, or auto");
  cfg.blocking.hop_expansion =
      static_cast<int>(args.get_int_in("block-hops", 0, kMaxInt));
  cfg.blocking.slot_tolerance =
      static_cast<int>(args.get_int_in("block-slot-tolerance", 0, kMaxInt));
  cfg.checkpoint_dir = args.get("checkpoint-dir");
  cfg.resume = args.get_flag("resume");
  cfg.context = &context;
  if (cfg.resume && cfg.checkpoint_dir.empty())
    throw std::invalid_argument("--resume requires --checkpoint-dir");

  util::Table table({"attack", "F1", "precision", "recall"});
  auto record = [&](baselines::FriendshipAttack& attack) {
    const ml::Prf prf = eval::run_attack(attack, experiment);
    table.new_row()
        .add(attack.name())
        .add(prf.f1, 4)
        .add(prf.precision, 4)
        .add(prf.recall, 4);
  };
  eval::FriendSeekerAttack seeker(cfg);
  record(seeker);
  if (args.get_flag("baselines"))
    for (const auto& baseline : eval::make_baselines()) record(*baseline);
  table.print("attack results (70/30 pair split)");
  std::printf("result digest: %s  final graph digest: %s\n",
              eval::result_digest(seeker.last_result()).c_str(),
              eval::graph_digest(seeker.last_result().final_graph).c_str());

  const runtime::DegradationReport& degradation =
      seeker.last_result().degradation;
  if (degradation.degraded())
    std::fprintf(stderr, "run degraded (last-good results shown):\n%s\n",
                 degradation.to_string().c_str());
  if (seeker.last_result().peak_memory_estimate > 0)
    std::fprintf(stderr, "peak working-set estimate: %.1f MB\n",
                 static_cast<double>(
                     seeker.last_result().peak_memory_estimate) /
                     (1024.0 * 1024.0));
  if (seeker.last_result().blocking_active) {
    const auto& bs = seeker.last_result().blocking;
    std::fprintf(stderr,
                 "blocking: scored %zu of %zu pairs (%zu pruned, %zu kept "
                 "via hop expansion, %zu forced train pairs)\n",
                 bs.scored_pairs, bs.universe_pairs, bs.pruned_pairs,
                 bs.hop_candidates, bs.forced_pairs);
  }

  // Telemetry files are written on every exit path, interrupted included —
  // a cancelled run's partial telemetry is exactly when you want it.
  if (snapshots != nullptr) snapshots->stop();
  if (!metrics_out.empty()) {
    if (snapshots == nullptr) obs::write_metrics_files(obs::metrics(),
                                                       metrics_out);
    std::fprintf(stderr, "metrics: %s (and %s)\n", metrics_out.c_str(),
                 obs::prometheus_path_for(metrics_out).c_str());
  }
  if (!trace_out.empty()) {
    obs::tracer().write_chrome_json(trace_out);
    std::fprintf(stderr, "trace: %s (load in Perfetto or "
                 "chrome://tracing)\n", trace_out.c_str());
  }
  if (degradation.cancelled() || runtime::global_token().requested()) {
    std::fprintf(stderr, "interrupted by signal %d; last checkpoint kept\n",
                 runtime::last_signal());
    return 130;
  }
  return 0;
}

int cmd_serve(int argc, char** argv) {
  util::ArgParser args;
  args.add_option("source", "replay",
                  "event source: replay (SNAP file, file order, rate-limited "
                  "by --events-per-tick) | tail (follow a growing file)");
  args.add_option("listen", "",
                  "HOST:PORT — take events from the network instead of a "
                  "file (fs::net wire protocol; see tools/feed_client) and "
                  "serve /metrics, /healthz, /streamz over HTTP on the same "
                  "port; SIGTERM drains gracefully and exits 0");
  args.add_option("max-conns", "64",
                  "with --listen: established-connection cap (overflow is "
                  "shed and counted)");
  args.add_option("idle-timeout-ms", "30000",
                  "with --listen: reap connections with no read/write "
                  "progress for this long (slow-loris / stalled-scrape "
                  "defense)");
  args.add_option("journal-dir", "",
                  "durability directory (CRC-framed journal + snapshots); "
                  "empty = volatile run, no crash recovery");
  args.add_option("snapshot-every", "0",
                  "write an incremental snapshot (and compact the journal) "
                  "every N ticks (0 = only at shutdown)");
  args.add_option("tick-ms", "50",
                  "per-tick wall-clock budget for re-deciding the dirty "
                  "pair frontier (0 = unlimited)");
  args.add_option("staleness-budget-ms", "200",
                  "staleness SLO: the oldest dirty pair may lag at most "
                  "this far behind (converted to ticks of --tick-ms)");
  args.add_option("events-per-tick", "64",
                  "lines polled from the source and consumed from the ring "
                  "per tick (the replay event rate)");
  args.add_option("ring-capacity", "256", "backpressure ring capacity");
  args.add_option("backpressure", "block",
                  "ring-full policy: block (lossless, stalls the source) | "
                  "shed (drop overflow with accounting)");
  args.add_option("max-ticks", "0", "stop after N ticks (0 = run to "
                                    "exhaustion / cancellation)");
  args.add_option("lateness-budget-sec", "0",
                  "quarantine events older than the watermark minus this "
                  "budget (0 = accept any order, like the batch loader)");
  args.add_option("sigma", "16", "quadtree leaf capacity for the live index");
  args.add_option("tau", "1", "time-slot length in days for the live index");
  args.add_option("iterations", "6",
                  "max refinement iterations for --finalize pipeline runs");
  args.add_option("expect-digest", "",
                  "hex digest the drained engine state must match; "
                  "mismatch exits 3 (convergence differential)");
  args.add_option("metrics-out", "",
                  "write metrics here as JSON (plus a .prom twin)");
  args.add_flag("finalize",
                "after the stream drains, assemble the batch-equivalent "
                "dataset and run the full FriendSeeker pipeline on it "
                "(requires the EDGES positional)");
  args.add_flag("help", "show options");
  args.parse(argc, argv, 2);
  if (args.get_flag("help")) {
    std::fprintf(stderr,
                 "usage: friendseeker serve CHECKINS [EDGES] [options]\n%s",
                 args.help().c_str());
    return 0;
  }
  const std::string listen = args.get("listen");
  if (listen.empty() && args.positional().empty())
    throw std::invalid_argument("expected: CHECKINS [EDGES]");
  if (!listen.empty() && args.get_flag("finalize"))
    throw std::invalid_argument(
        "--listen serves an endless stream; run finalize separately against "
        "the recovered journal (serve --source replay --finalize)");
  util::set_log_level(util::LogLevel::kInfo);
  const std::string metrics_out = args.get("metrics-out");
  if (!metrics_out.empty()) obs::set_metrics_enabled(true);

  runtime::install_signal_handlers();
  runtime::ExecutionContext context;
  context.set_cancellation(&runtime::global_token());

  stream::ServeConfig cfg;
  cfg.engine.sigma =
      static_cast<std::size_t>(args.get_int_in("sigma", 0, kMaxCount));
  cfg.engine.tau_days = args.get_double("tau");
  cfg.engine.lateness_budget_sec =
      static_cast<geo::Timestamp>(args.get_int("lateness-budget-sec"));
  cfg.ring_capacity =
      static_cast<std::size_t>(args.get_int_in("ring-capacity", 0, kMaxCount));
  cfg.events_per_tick = static_cast<std::size_t>(
      args.get_int_in("events-per-tick", 0, kMaxCount));
  cfg.tick_budget_ms = args.get_double("tick-ms");
  const double staleness_ms = args.get_double("staleness-budget-ms");
  cfg.staleness_budget_ticks =
      cfg.tick_budget_ms > 0
          ? static_cast<std::uint64_t>(
                std::max(1.0, staleness_ms / cfg.tick_budget_ms))
          : 4;
  cfg.journal_dir = args.get("journal-dir");
  cfg.snapshot_every = static_cast<std::uint64_t>(
      args.get_int_in("snapshot-every", 0, kMaxCount));
  cfg.max_ticks =
      static_cast<std::uint64_t>(args.get_int_in("max-ticks", 0, kMaxCount));
  const std::string backpressure = args.get("backpressure");
  if (backpressure == "block")
    cfg.backpressure = stream::Backpressure::kBlock;
  else if (backpressure == "shed")
    cfg.backpressure = stream::Backpressure::kShed;
  else
    throw std::invalid_argument("--backpressure must be block or shed");
  const std::string source_kind = args.get("source");
  std::unique_ptr<net::NetServer> server;
  std::unique_ptr<stream::EventSource> source;
  if (!listen.empty()) {
    net::NetConfig net_cfg;
    const auto colon = listen.rfind(':');
    if (colon == std::string::npos)
      throw std::invalid_argument("--listen expects HOST:PORT");
    net_cfg.bind_host = listen.substr(0, colon);
    const long long port = util::parse_int(listen.substr(colon + 1));
    if (port < 0 || port > 65535)  // 0 binds an ephemeral port
      throw std::invalid_argument("--listen port must be in [0, 65535], got " +
                                  std::to_string(port));
    net_cfg.port = static_cast<std::uint16_t>(port);
    net_cfg.max_connections =
        static_cast<std::size_t>(args.get_int_in("max-conns", 0, kMaxCount));
    net_cfg.idle_timeout_ms = args.get_double("idle-timeout-ms");
    server = std::make_unique<net::NetServer>(net_cfg);
    source = std::make_unique<net::SocketSource>(*server);
    cfg.stop_when_exhausted = false;
    cfg.idle_sleep_ms = cfg.tick_budget_ms > 0 ? cfg.tick_budget_ms : 50.0;
    cfg.drain_on_cancel = true;  // SIGTERM = graceful drain, exit 0
    net::NetServer* srv = server.get();
    cfg.after_tick = [srv](stream::ServeDaemon& d) {
      if (srv->commit_pending()) {
        // Durable-commit path: fsync the journal, then publish how far it
        // covers; the server acks every commit at or below that watermark.
        d.sync_journal();
        srv->publish_durable(d.journaled_watermark());
      }
      srv->publish_streamz(d.streamz_json());
    };
  } else if (source_kind == "replay") {
    source = std::make_unique<stream::ReplaySource>(args.positional()[0]);
  } else if (source_kind == "tail") {
    source = std::make_unique<stream::FileTailSource>(args.positional()[0]);
    cfg.stop_when_exhausted = false;
    cfg.idle_sleep_ms = cfg.tick_budget_ms > 0 ? cfg.tick_budget_ms : 50.0;
  } else {
    throw std::invalid_argument("--source must be replay or tail");
  }
  util::Diagnostics diagnostics;
  cfg.context = &context;
  cfg.diagnostics = &diagnostics;
  if (!cfg.journal_dir.empty())
    std::filesystem::create_directories(cfg.journal_dir);

  stream::ServeDaemon daemon(std::move(cfg), std::move(source));
  const stream::RecoveryInfo recovery = daemon.recover();
  if (recovery.snapshot_used || recovery.journal_frames_replayed > 0)
    std::fprintf(stderr,
                 "recovered: %llu consumed lines (snapshot %s, %llu journal "
                 "frames%s)\n",
                 static_cast<unsigned long long>(recovery.consumed_lines),
                 recovery.snapshot_used ? "used" : "absent",
                 static_cast<unsigned long long>(
                     recovery.journal_frames_replayed),
                 recovery.journal_truncated ? ", torn tail cut" : "");
  if (server != nullptr) {
    server->start();
    std::fprintf(stderr,
                 "listening on %s:%u (feed protocol + GET /metrics "
                 "/healthz /streamz)\n",
                 listen.substr(0, listen.rfind(':')).c_str(),
                 static_cast<unsigned>(server->port()));
  }

  const bool finalize = args.get_flag("finalize");
  if (finalize && args.positional().size() < 2)
    throw std::invalid_argument("--finalize requires the EDGES positional");
  const stream::ServeReport report = daemon.run();
  if (finalize) {
    const auto raw_edges = data::read_edges_file(args.positional()[1]);
    const data::Dataset ds = daemon.engine().to_dataset(raw_edges);
    if (ds.user_count() < 4) {
      std::fprintf(stderr,
                   "finalize: only %zu active users, skipping pipeline\n",
                   ds.user_count());
    } else {
      const eval::Experiment experiment =
          eval::make_experiment(ds, args.positional()[0]);
      core::FriendSeekerConfig seeker_cfg = eval::default_seeker_config();
      seeker_cfg.sigma =
          static_cast<std::size_t>(args.get_int_in("sigma", 0, kMaxCount));
      seeker_cfg.tau_days = args.get_double("tau");
      seeker_cfg.max_iterations =
          static_cast<int>(args.get_int_in("iterations", 0, kMaxInt));
      seeker_cfg.context = &context;
      eval::FriendSeekerAttack seeker(seeker_cfg);
      const ml::Prf prf = eval::run_attack(seeker, experiment);
      std::fprintf(stderr, "finalize: F1 %.4f\n", prf.f1);
    }
  }

  std::fprintf(stderr,
               "serve: %llu ticks, %llu consumed (%llu accepted, %llu "
               "quarantined, %llu shed), %llu blocked polls, %llu "
               "snapshots, %llu deadline hits, max staleness %llu ticks "
               "(%llu violations), %llu live edges\n",
               static_cast<unsigned long long>(report.ticks),
               static_cast<unsigned long long>(report.consumed_lines),
               static_cast<unsigned long long>(report.accepted),
               static_cast<unsigned long long>(report.quarantined),
               static_cast<unsigned long long>(report.shed),
               static_cast<unsigned long long>(report.blocked_polls),
               static_cast<unsigned long long>(report.snapshots_written),
               static_cast<unsigned long long>(report.deadline_hits),
               static_cast<unsigned long long>(report.max_staleness_ticks),
               static_cast<unsigned long long>(report.staleness_violations),
               static_cast<unsigned long long>(report.live_edges));
  if (report.quarantined > 0)
    std::fprintf(stderr, "%s\n", daemon.quarantine().summary().c_str());
  std::printf("state digest: %016llx\n",
              static_cast<unsigned long long>(report.final_digest));
  if (!metrics_out.empty()) {
    obs::write_metrics_files(obs::metrics(), metrics_out);
    std::fprintf(stderr, "metrics: %s\n", metrics_out.c_str());
  }
  if (server != nullptr) {
    // Graceful drain: stop accepting, close out connections, and report the
    // shutdown as orderly — the ring was drained, the journal fsynced, and
    // a final snapshot written by drain_on_cancel. Items still queued in
    // the server are unacknowledged; clients resend them on reconnect.
    server->stop_accepting();
    const auto net_stats = server->stats();
    server->stop();
    std::fprintf(stderr,
                 "net: %llu connections (%llu shed, %llu reaped), %llu "
                 "frames (%llu rejected, %llu torn tails), %llu commits "
                 "acked, %llu http requests\n",
                 static_cast<unsigned long long>(net_stats.connections_total),
                 static_cast<unsigned long long>(net_stats.connections_shed),
                 static_cast<unsigned long long>(net_stats.connections_reaped),
                 static_cast<unsigned long long>(net_stats.frames_total),
                 static_cast<unsigned long long>(net_stats.frames_rejected),
                 static_cast<unsigned long long>(net_stats.torn_tails),
                 static_cast<unsigned long long>(net_stats.commits_acked),
                 static_cast<unsigned long long>(net_stats.http_requests));
    if (report.cancelled || runtime::global_token().requested())
      std::fprintf(stderr,
                   "drained on signal %d: journal fsynced, snapshot "
                   "written\n",
                   runtime::last_signal());
  } else if (report.cancelled || runtime::global_token().requested()) {
    std::fprintf(stderr, "interrupted by signal %d; journal intact\n",
                 runtime::last_signal());
    return 130;
  }
  const std::string expect = args.get("expect-digest");
  if (!expect.empty()) {
    const auto expected = std::stoull(expect, nullptr, 16);
    if (expected != report.final_digest) {
      std::fprintf(stderr,
                   "digest mismatch: expected %016llx, got %016llx\n",
                   static_cast<unsigned long long>(expected),
                   static_cast<unsigned long long>(report.final_digest));
      return 3;
    }
  }
  return 0;
}

int cmd_obfuscate(int argc, char** argv) {
  util::ArgParser args;
  args.add_option("mechanism", "hide",
                  "hide | blur-in | blur-cross | friendguard");
  args.add_option("ratio", "0.3", "perturbation budget in [0, 1]");
  args.add_option("sigma", "0", "grid sigma for blurring (0 = poi/8)");
  args.add_option("out", "obfuscated_out", "output directory");
  args.add_option("seed", "7", "RNG seed");
  args.add_flag("help", "show options");
  args.parse(argc, argv, 2);
  if (args.get_flag("help")) {
    std::fprintf(stderr, "usage: friendseeker obfuscate CHECKINS EDGES "
                         "[options]\n%s",
                 args.help().c_str());
    return 0;
  }
  const data::Dataset ds = load_positional(args);
  const double ratio = args.get_double("ratio");
  const long long sigma_arg = args.get_int_in("sigma", 0, kMaxCount);
  const std::size_t sigma =
      sigma_arg > 0 ? static_cast<std::size_t>(sigma_arg)
                    : std::max<std::size_t>(40, ds.poi_count() / 8);
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 0, kMaxCount));
  util::Rng rng(seed);

  data::Dataset out = ds;
  const std::string mechanism = args.get("mechanism");
  if (mechanism == "hide") {
    out = data::hide_checkins(ds, ratio, rng);
  } else if (mechanism == "blur-in") {
    const geo::QuadtreeDivision division(ds.poi_coordinates(), sigma);
    out = data::blur_in_grid(ds, ratio, division, rng);
  } else if (mechanism == "blur-cross") {
    const geo::QuadtreeDivision division(ds.poi_coordinates(), sigma);
    out = data::blur_cross_grid(ds, ratio, division, rng);
  } else if (mechanism == "friendguard") {
    const geo::QuadtreeDivision division(ds.poi_coordinates(), sigma);
    data::FriendGuardConfig guard;
    guard.budget = ratio;
    guard.seed = seed;
    out = data::friend_guard(ds, division, guard);
  } else {
    throw std::invalid_argument("unknown mechanism '" + mechanism + "'");
  }

  const std::string dir = args.get("out");
  std::filesystem::create_directories(dir);
  data::save_checkins_snap(out, dir + "/checkins.txt", dir + "/edges.txt");
  std::printf("%s at ratio %.2f: %zu -> %zu check-ins, written to %s/\n",
              mechanism.c_str(), ratio, ds.checkin_count(),
              out.checkin_count(), dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "--list-failpoints") return list_failpoints();
  try {
    if (command == "generate") return cmd_generate(argc, argv);
    if (command == "stats") return cmd_stats(argc, argv);
    if (command == "convert") return cmd_convert(argc, argv);
    if (command == "attack") return cmd_attack(argc, argv);
    if (command == "obfuscate") return cmd_obfuscate(argc, argv);
    if (command == "serve") return cmd_serve(argc, argv);
  } catch (const fs::CancelledError& e) {
    // Cancellation at a hard checkpoint (e.g. mid-load): the working state
    // is unusable, exit with the conventional interrupted status.
    std::fprintf(stderr, "friendseeker %s: interrupted: %s\n",
                 command.c_str(), e.what());
    return 130;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "friendseeker %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  return usage();
}
