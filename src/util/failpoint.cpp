#include "util/failpoint.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "util/strings.h"

namespace fs::util::failpoint {

namespace {

struct State {
  Config config;
  std::uint64_t evaluations = 0;
  std::uint64_t triggers = 0;
  bool active = false;
};

// The registry is shared: fs::net evaluates failpoints from the server poll
// thread and the feed-client thread while chaos harnesses (re)activate them
// from the main thread between daemon incarnations. A mutex guards the map;
// the inactive fast path is a single relaxed atomic load so call sites in
// hot loops stay free when nothing is activated.
std::mutex& registry_mutex() {
  static std::mutex instance;
  return instance;
}

std::map<std::string, State>& registry() {
  static std::map<std::string, State> instance;
  return instance;
}

std::atomic<std::size_t>& active_count() {
  static std::atomic<std::size_t> count{0};
  return count;
}

bool parse_action(std::string_view text, Action& out) {
  if (text == "error") out = Action::kError;
  else if (text == "nan") out = Action::kNan;
  else if (text == "truncate") out = Action::kTruncate;
  else if (text == "latency") out = Action::kLatency;
  else return false;
  return true;
}

void ensure_env_init() {
  // Magic static (thread-safe once-init); a plain bool flag here would be a
  // data race on concurrent first evaluations.
  static const bool done = [] {
    init_from_env();
    return true;
  }();
  (void)done;
}

/// Evaluates a failpoint: returns the action if it fired, nullopt if not.
/// Latency actions sleep (outside the lock) and report "not fired".
std::optional<Action> evaluate(const char* name) {
  ensure_env_init();
  if (active_count().load(std::memory_order_relaxed) == 0) return std::nullopt;
  int latency_ms = 0;
  {
    std::lock_guard<std::mutex> lock(registry_mutex());
    const auto it = registry().find(name);
    if (it == registry().end() || !it->second.active) return std::nullopt;
    State& state = it->second;
    const auto evaluation = static_cast<std::int64_t>(state.evaluations++);
    if (evaluation < state.config.skip) return std::nullopt;
    if (state.config.limit >= 0 &&
        static_cast<std::int64_t>(state.triggers) >= state.config.limit)
      return std::nullopt;
    ++state.triggers;
    if (state.config.action != Action::kLatency) return state.config.action;
    latency_ms = state.config.latency_ms;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(latency_ms));
  return std::nullopt;  // latency delays the call site but never fails it
}

}  // namespace

void activate(const std::string& name, const Config& config) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  State& state = registry()[name];
  if (!state.active) active_count().fetch_add(1, std::memory_order_relaxed);
  state.config = config;
  state.active = true;
}

void activate(const std::string& name, Action action, int limit) {
  Config config;
  config.action = action;
  config.limit = limit;
  activate(name, config);
}

void deactivate(const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  const auto it = registry().find(name);
  if (it != registry().end() && it->second.active) {
    it->second.active = false;
    active_count().fetch_sub(1, std::memory_order_relaxed);
  }
}

void clear() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  registry().clear();
  active_count().store(0, std::memory_order_relaxed);
}

bool any_active() {
  return active_count().load(std::memory_order_relaxed) > 0;
}

std::uint64_t evaluations(const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  const auto it = registry().find(name);
  return it == registry().end() ? 0 : it->second.evaluations;
}

std::uint64_t triggers(const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  const auto it = registry().find(name);
  return it == registry().end() ? 0 : it->second.triggers;
}

const std::vector<KnownFailpoint>& known_failpoints() {
  // Sorted by name at first use rather than by hand: entries are added in
  // PR-sized batches and a hand-maintained order drifts, which makes
  // --list-failpoints (and the chaos schedules diffed against it)
  // nondeterministic relative to the sources.
  static const std::vector<KnownFailpoint> table = [] {
    std::vector<KnownFailpoint> entries = {
        {"checkpoint.load.truncate", "truncate",
         "drop the tail of a checkpoint read (torn write / short read); the "
         "loader must reject it as CorruptCheckpoint"},
        {"checkpoint.save.io", "error",
         "fail a checkpoint save before anything is written; the run "
         "continues, losing only resumability"},
        {"checkpoint.save.rename", "error",
         "fail the temp-file rename after the payload was written; the saver "
         "must clean up the stray .tmp file"},
        {"data.load.open", "error",
         "fail opening the check-in/edge file; retried under the loader's "
         "RetryPolicy before surfacing IoError"},
        {"net.accept.fail", "error",
         "fail one accept(2) on the fs::net listener; counted in "
         "net.accept_failures_total, the listener keeps polling"},
        {"net.conn.drop", "error",
         "drop an established fs::net connection mid-stream; the peer sees "
         "a reset and the feed client reconnects under its RetryPolicy"},
        {"net.feed.stall", "latency",
         "stall the feed client before a send, simulating a slow peer; the "
         "server's idle deadline reaps connections that stall too long"},
        {"net.feed.torn_send", "truncate",
         "cut a feed-client frame short mid-send then disconnect (torn "
         "write); the server discards the partial frame and the client "
         "resends from its acknowledged watermark"},
        {"net.write.torn", "truncate",
         "cut an fs::net server write short (torn response); the connection "
         "is closed rather than left desynchronized"},
        {"ml.svm.nan", "nan",
         "poison the SVM's input features with a non-finite value; fit() "
         "throws NumericError and phase 2 keeps its last-good graph"},
        {"nn.train.nan", "nan",
         "poison one autoencoder batch loss; training reinitializes with a "
         "backed-off learning rate under its RetryPolicy"},
        {"pipeline.iteration.abort", "error",
         "simulate a process kill at a phase-2 iteration boundary (after the "
         "checkpoint save); throws InjectedKill, resumable via --resume"},
        {"stream.journal.torn_write", "truncate",
         "cut a stream journal frame short mid-write (crash during append); "
         "the writer throws IoError and recovery truncates the torn tail"},
        {"stream.source.open_fail", "error",
         "fail opening the stream source file; retried with backoff under "
         "the source's RetryPolicy before surfacing IoError"},
        {"stream.tick.abort", "error",
         "simulate a process kill at a serve-tick boundary (after the "
         "journal flush); throws InjectedKill, resumable via the journal"},
    };
    std::sort(entries.begin(), entries.end(),
              [](const KnownFailpoint& a, const KnownFailpoint& b) {
                return std::string_view(a.name) < std::string_view(b.name);
              });
    return entries;
  }();
  return table;
}

void init_from_env() {
  const char* env = std::getenv("FS_FAILPOINTS");
  if (env == nullptr || *env == '\0') return;
  // "name=action[:key=value[:...]];name2=action"
  for (std::string_view entry : split(env, ';')) {
    entry = trim(entry);
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    if (eq == std::string_view::npos) continue;
    const std::string name(trim(entry.substr(0, eq)));
    const std::vector<std::string_view> parts =
        split(entry.substr(eq + 1), ':');
    Config config;
    if (parts.empty() || !parse_action(trim(parts[0]), config.action))
      continue;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      const std::string_view part = trim(parts[i]);
      const auto kv = part.find('=');
      if (kv == std::string_view::npos) continue;
      const std::string_view key = part.substr(0, kv);
      const long long value = parse_int(part.substr(kv + 1));
      if (key == "skip") config.skip = static_cast<int>(value);
      else if (key == "limit") config.limit = static_cast<int>(value);
      else if (key == "latency_ms") config.latency_ms =
          static_cast<int>(value);
    }
    activate(name, config);
  }
}

bool fail(const char* name) {
  return evaluate(name) == Action::kError;
}

double corrupt(const char* name, double value) {
  if (evaluate(name) == Action::kNan)
    return std::numeric_limits<double>::quiet_NaN();
  return value;
}

std::size_t truncate(const char* name, std::size_t size) {
  if (evaluate(name) == Action::kTruncate) return size / 2;
  return size;
}

}  // namespace fs::util::failpoint
