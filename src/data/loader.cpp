#include "data/loader.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace fs::data {

namespace {

/// Days since 1970-01-01 for a proleptic Gregorian date (Howard Hinnant's
/// days_from_civil algorithm).
long long days_from_civil(int y, unsigned m, unsigned d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return static_cast<long long>(era) * 146097 +
         static_cast<long long>(doe) - 719468;
}

bool is_leap_year(int y) {
  return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
}

unsigned days_in_month(int y, unsigned m) {
  static constexpr unsigned kDays[12] = {31, 28, 31, 30, 31, 30,
                                         31, 31, 30, 31, 30, 31};
  if (m == 2 && is_leap_year(y)) return 29;
  return kDays[m - 1];
}

}  // namespace

geo::Timestamp parse_iso8601_utc(const std::string& text) {
  int y = 0;
  unsigned mo = 0, d = 0, h = 0, mi = 0, s = 0;
  int consumed = 0;
  // Accepts both "T...Z" and "space" separators.
  if (std::sscanf(text.c_str(), "%d-%u-%u%*1[T ]%u:%u:%u%n", &y, &mo, &d, &h,
                  &mi, &s, &consumed) != 6)
    throw ParseError("parse_iso8601_utc: bad timestamp '" + text + "'");
  // ISO 8601's four-digit years; also keeps days_from_civil's year
  // arithmetic clear of signed overflow.
  if (y < 0 || y > 9999 || mo < 1 || mo > 12 || h > 23 || mi > 59 || s > 60)
    throw ParseError("parse_iso8601_utc: out-of-range field in '" + text +
                     "'");
  if (d < 1 || d > days_in_month(y, mo))
    throw ParseError("parse_iso8601_utc: impossible calendar date in '" +
                     text + "'");
  // Only an optional 'Z' and trailing whitespace may follow the seconds;
  // anything else is garbage masquerading as a timestamp.
  std::size_t rest = static_cast<std::size_t>(consumed);
  if (rest < text.size() && text[rest] == 'Z') ++rest;
  if (!util::trim(std::string_view(text).substr(rest)).empty())
    throw ParseError("parse_iso8601_utc: trailing garbage in '" + text + "'");
  return days_from_civil(y, mo, d) * geo::kSecondsPerDay +
         static_cast<geo::Timestamp>(h) * 3600 + mi * 60 + s;
}

namespace {

struct RawCheckin {
  long long user;
  geo::Timestamp time;
  geo::LatLng location;
  long long poi;
};

enum class LineOutcome {
  kOk,
  kShortLine,
  kBadTimestamp,
  kBadNumber,
  kOutOfRange,
};

LineOutcome parse_checkin_line(std::string_view trimmed, RawCheckin& rc) {
  const auto fields = util::split_whitespace(trimmed);
  if (fields.size() < 5) return LineOutcome::kShortLine;
  try {
    rc.user = util::parse_int(fields[0]);
    rc.location.lat = util::parse_double(fields[2]);
    rc.location.lng = util::parse_double(fields[3]);
    rc.poi = util::parse_int(fields[4]);
  } catch (const std::invalid_argument&) {
    return LineOutcome::kBadNumber;
  }
  try {
    rc.time = parse_iso8601_utc(std::string(fields[1]));
  } catch (const ParseError&) {
    return LineOutcome::kBadTimestamp;
  }
  if (rc.location.lat < -90.0 || rc.location.lat > 90.0 ||
      rc.location.lng < -180.0 || rc.location.lng > 180.0)
    return LineOutcome::kOutOfRange;
  return LineOutcome::kOk;
}

const char* outcome_name(LineOutcome outcome) {
  switch (outcome) {
    case LineOutcome::kOk: return "ok";
    case LineOutcome::kShortLine: return "short line";
    case LineOutcome::kBadTimestamp: return "bad timestamp";
    case LineOutcome::kBadNumber: return "bad number";
    case LineOutcome::kOutOfRange: return "out-of-range coordinate";
  }
  return "unknown";
}

/// Counts a quarantined line into the report; in strict mode throws
/// instead.
void quarantine(LineOutcome outcome, std::string_view line,
                std::size_t line_number, const LoadOptions& options,
                LoadReport& report, const char* path) {
  if (options.strictness == Strictness::kStrict)
    throw ParseError(std::string("load_checkins_snap: ") +
                     outcome_name(outcome) + " at " + path + ":" +
                     std::to_string(line_number) + ": '" +
                     std::string(line) + "'");
  switch (outcome) {
    case LineOutcome::kOk: break;
    case LineOutcome::kShortLine: ++report.short_lines; break;
    case LineOutcome::kBadTimestamp: ++report.bad_timestamps; break;
    case LineOutcome::kBadNumber: ++report.bad_numbers; break;
    case LineOutcome::kOutOfRange: ++report.out_of_range_coords; break;
  }
  if (report.sample_bad_lines.size() < options.max_sample_lines)
    report.sample_bad_lines.emplace_back(line);
}

/// Opens the file under the options' retry policy: transient failures
/// (injected or real) are retried with exponential backoff and reported
/// into the diagnostics sink; the last failure's IoError propagates.
std::ifstream open_or_throw(const std::string& path,
                            const LoadOptions& options) {
  runtime::Retrier retrier(options.open_retry);
  while (true) {
    try {
      if (util::failpoint::fail("data.load.open"))
        throw IoError("load_checkins_snap: injected open failure for " +
                      path);
      std::ifstream file(path);
      if (!file) throw IoError("load_checkins_snap: cannot open " + path);
      return file;
    } catch (const IoError& e) {
      if (!retrier.retry()) throw;
      if (options.diagnostics != nullptr)
        options.diagnostics->report(
            util::Severity::kWarning, ErrorCode::kIo, "loader",
            std::string("open failed (attempt ") +
                std::to_string(retrier.failures()) + "), retrying: " +
                e.what());
    }
  }
}

/// Cooperative cancellation point, amortized over the line counter.
constexpr std::size_t kGovernanceStride = 4096;

void governance_check(const LoadOptions& options, std::size_t line_number) {
  if (options.context != nullptr && line_number % kGovernanceStride == 0)
    options.context->checkpoint("data.load");
}

}  // namespace

std::string LoadReport::summary() const {
  std::ostringstream oss;
  oss << "check-ins: " << accepted_checkins << "/" << checkin_lines
      << " accepted";
  if (quarantined_checkins() > 0)
    oss << " (" << quarantined_checkins() << " quarantined: "
        << short_lines << " short, " << bad_timestamps << " bad timestamp, "
        << bad_numbers << " bad number, " << out_of_range_coords
        << " out-of-range)";
  oss << "\nedges: " << accepted_edges << "/" << edge_lines << " accepted";
  if (quarantined_edges() > 0)
    oss << " (" << quarantined_edges() << " quarantined: " << short_edge_lines
        << " short, " << bad_edge_numbers << " bad number)";
  oss << "\nusers dropped: " << users_below_activity_floor
      << " below activity floor, " << users_dropped_by_cap << " by cap";
  return oss.str();
}

namespace {

/// Folds the finished LoadReport into the metrics registry: line totals,
/// per-reason quarantine counters, and ingestion throughput. One batched
/// update per load keeps the per-line loop untouched.
void publish_load_metrics(const LoadReport& rep, double elapsed_sec) {
  obs::MetricsRegistry& reg = obs::metrics();
  reg.counter("data.loader.lines_total", {},
              "check-in lines read (excluding blank lines)")
      .add(rep.checkin_lines);
  reg.counter("data.loader.accepted_checkins_total", {},
              "check-in records accepted into the dataset")
      .add(rep.accepted_checkins);
  reg.counter("data.loader.edge_lines_total", {}, "edge lines read")
      .add(rep.edge_lines);
  reg.counter("data.loader.accepted_edges_total", {},
              "friendship edges accepted into the dataset")
      .add(rep.accepted_edges);
  const auto quarantine_counter = [&reg](const char* reason,
                                         std::size_t count) {
    if (count > 0)
      reg.counter("data.loader.quarantined_total", {{"reason", reason}},
                  "lines quarantined by the permissive loader, by reason")
          .add(count);
  };
  quarantine_counter("short_line", rep.short_lines);
  quarantine_counter("bad_timestamp", rep.bad_timestamps);
  quarantine_counter("bad_number", rep.bad_numbers);
  quarantine_counter("out_of_range", rep.out_of_range_coords);
  quarantine_counter("short_edge_line", rep.short_edge_lines);
  quarantine_counter("bad_edge_number", rep.bad_edge_numbers);
  if (elapsed_sec > 0.0)
    reg.gauge("data.loader.lines_per_sec", {},
              "ingestion throughput of the last load (both passes + edges)")
        .set(static_cast<double>(rep.checkin_lines * 2 + rep.edge_lines) /
             elapsed_sec);
}

}  // namespace

Dataset load_checkins_snap(const std::string& checkins_path,
                           const std::string& edges_path,
                           const LoadOptions& options, LoadReport* report) {
  obs::Span load_span("data.load");
  LoadReport local_report;
  LoadReport& rep = report != nullptr ? *report : local_report;
  rep = LoadReport{};

  // ---- Pass 1: stream the check-in file, counting valid records per
  // user. Nothing is buffered, so users that fail the activity floor cost
  // a map entry, not their full record set. ----
  std::unordered_map<long long, std::size_t> user_checkin_count;
  {
    FS_SPAN("data.load.pass1");
    std::ifstream checkin_file = open_or_throw(checkins_path, options);
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(checkin_file, line)) {
      ++line_number;
      governance_check(options, line_number);
      const auto trimmed = util::trim(line);
      if (trimmed.empty()) continue;
      ++rep.checkin_lines;
      RawCheckin rc;
      const LineOutcome outcome = parse_checkin_line(trimmed, rc);
      if (outcome != LineOutcome::kOk) {
        quarantine(outcome, line, line_number, options, rep,
                   checkins_path.c_str());
        continue;
      }
      ++user_checkin_count[rc.user];
    }
  }

  // Select users passing the activity floor; densify ids deterministically
  // (ascending original id).
  std::map<long long, UserId> user_map;
  for (const auto& [user, count] : user_checkin_count) {
    if (count >= static_cast<std::size_t>(options.min_checkins))
      user_map.emplace(user, 0);
    else
      ++rep.users_below_activity_floor;
  }
  if (options.max_users != 0 && user_map.size() > options.max_users) {
    auto it = user_map.begin();
    std::advance(it, static_cast<long>(options.max_users));
    rep.users_dropped_by_cap = user_map.size() - options.max_users;
    user_map.erase(it, user_map.end());
  }
  UserId next_user = 0;
  for (auto& [user, dense] : user_map) dense = next_user++;

  // ---- Pass 2: re-stream, keeping only records of selected users. POIs
  // are interned on first use by a kept record, so filtered users leave no
  // residue in the POI map. Malformed lines were counted in pass 1 and are
  // skipped silently here. ----
  std::map<long long, PoiId> poi_map;
  std::vector<Poi> pois;
  std::vector<CheckIn> checkins;
  {
    FS_SPAN("data.load.pass2");
    std::ifstream checkin_file = open_or_throw(checkins_path, options);
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(checkin_file, line)) {
      governance_check(options, ++line_number);
      const auto trimmed = util::trim(line);
      if (trimmed.empty()) continue;
      RawCheckin rc;
      if (parse_checkin_line(trimmed, rc) != LineOutcome::kOk) continue;
      const auto uit = user_map.find(rc.user);
      if (uit == user_map.end()) continue;
      auto [pit, inserted] =
          poi_map.emplace(rc.poi, static_cast<PoiId>(pois.size()));
      if (inserted) pois.push_back(Poi{rc.location, 0});
      checkins.push_back(
          CheckIn{uit->second, pit->second, rc.time, rc.location});
      ++rep.accepted_checkins;
    }
  }

  obs::Span edges_span("data.load.edges");
  graph::Graph g(user_map.size());
  for (const auto& [raw_a, raw_b] : read_edges_file(edges_path, options, &rep)) {
    const auto a = user_map.find(raw_a);
    const auto b = user_map.find(raw_b);
    if (a == user_map.end() || b == user_map.end()) continue;
    if (a->second != b->second && g.add_edge(a->second, b->second))
      ++rep.accepted_edges;
  }
  edges_span.end();

  publish_load_metrics(rep, load_span.seconds());
  return Dataset::build(user_map.size(), std::move(pois), std::move(checkins),
                        std::move(g));
}

std::vector<std::pair<long long, long long>> read_edges_file(
    const std::string& edges_path, const LoadOptions& options,
    LoadReport* report) {
  LoadReport local_report;
  LoadReport& rep = report != nullptr ? *report : local_report;
  std::vector<std::pair<long long, long long>> edges;
  std::ifstream edge_file = open_or_throw(edges_path, options);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(edge_file, line)) {
    ++line_number;
    governance_check(options, line_number);
    const auto trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    ++rep.edge_lines;
    const auto fields = util::split_whitespace(trimmed);
    if (fields.size() < 2) {
      if (options.strictness == Strictness::kStrict)
        throw ParseError("load_checkins_snap: short edge line at " +
                         edges_path + ":" + std::to_string(line_number) +
                         ": '" + line + "'");
      ++rep.short_edge_lines;
      if (rep.sample_bad_lines.size() < options.max_sample_lines)
        rep.sample_bad_lines.push_back(line);
      continue;
    }
    long long raw_a = 0, raw_b = 0;
    try {
      raw_a = util::parse_int(fields[0]);
      raw_b = util::parse_int(fields[1]);
    } catch (const std::invalid_argument&) {
      if (options.strictness == Strictness::kStrict)
        throw ParseError("load_checkins_snap: bad edge number at " +
                         edges_path + ":" + std::to_string(line_number) +
                         ": '" + line + "'");
      ++rep.bad_edge_numbers;
      if (rep.sample_bad_lines.size() < options.max_sample_lines)
        rep.sample_bad_lines.push_back(line);
      continue;
    }
    edges.emplace_back(raw_a, raw_b);
  }
  return edges;
}

Dataset assemble_from_records(
    const std::vector<RawRecord>& records,
    const std::vector<std::pair<long long, long long>>& raw_edges,
    const LoadOptions& options, LoadReport* report,
    std::vector<long long>* user_ids_out) {
  LoadReport local_report;
  LoadReport& rep = report != nullptr ? *report : local_report;

  // Mirror of the file loader's pass 1: per-user valid-record counts.
  std::unordered_map<long long, std::size_t> user_checkin_count;
  for (const RawRecord& r : records) ++user_checkin_count[r.user];

  // Activity floor + cap + ascending-raw-id densification, identical to
  // load_checkins_snap (a std::map keeps the deterministic order).
  std::map<long long, UserId> user_map;
  for (const auto& [user, count] : user_checkin_count) {
    if (count >= static_cast<std::size_t>(options.min_checkins))
      user_map.emplace(user, 0);
    else
      ++rep.users_below_activity_floor;
  }
  if (options.max_users != 0 && user_map.size() > options.max_users) {
    auto it = user_map.begin();
    std::advance(it, static_cast<long>(options.max_users));
    rep.users_dropped_by_cap = user_map.size() - options.max_users;
    user_map.erase(it, user_map.end());
  }
  UserId next_user = 0;
  for (auto& [user, dense] : user_map) dense = next_user++;
  if (user_ids_out != nullptr) {
    user_ids_out->clear();
    for (const auto& [user, dense] : user_map) user_ids_out->push_back(user);
  }

  // Mirror of pass 2: POIs interned on first use by a kept record.
  std::map<long long, PoiId> poi_map;
  std::vector<Poi> pois;
  std::vector<CheckIn> checkins;
  for (const RawRecord& r : records) {
    const auto uit = user_map.find(r.user);
    if (uit == user_map.end()) continue;
    auto [pit, inserted] =
        poi_map.emplace(r.poi, static_cast<PoiId>(pois.size()));
    if (inserted) pois.push_back(Poi{r.location, 0});
    checkins.push_back(CheckIn{uit->second, pit->second, r.time, r.location});
    ++rep.accepted_checkins;
  }

  graph::Graph g(user_map.size());
  for (const auto& [raw_a, raw_b] : raw_edges) {
    const auto a = user_map.find(raw_a);
    const auto b = user_map.find(raw_b);
    if (a == user_map.end() || b == user_map.end()) continue;
    if (a->second != b->second && g.add_edge(a->second, b->second))
      ++rep.accepted_edges;
  }
  return Dataset::build(user_map.size(), std::move(pois), std::move(checkins),
                        std::move(g));
}

void save_checkins_snap(const Dataset& ds, const std::string& checkins_path,
                        const std::string& edges_path) {
  std::ofstream checkin_file(checkins_path);
  if (!checkin_file)
    throw IoError("save_checkins_snap: cannot open " + checkins_path);
  for (const CheckIn& c : ds.checkins()) {
    // Times are written as raw epoch offsets in a fixed fake date range to
    // stay parseable; 2010-01-01 == epoch day 14610.
    const geo::Timestamp t = c.time;
    const long long day = 14610 + t / geo::kSecondsPerDay;
    const geo::Timestamp rem = t % geo::kSecondsPerDay;
    // Convert day count back to a civil date (inverse of days_from_civil).
    long long z = day + 719468;
    const long long era = (z >= 0 ? z : z - 146096) / 146097;
    const unsigned doe = static_cast<unsigned>(z - era * 146097);
    const unsigned yoe =
        (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    const long long y = static_cast<long long>(yoe) + era * 400;
    const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    const unsigned mp = (5 * doy + 2) / 153;
    const unsigned d = doy - (153 * mp + 2) / 5 + 1;
    const unsigned m = mp + (mp < 10 ? 3 : -9);
    checkin_file << c.user << '\t'
                 << util::format(
                        "%04lld-%02u-%02uT%02lld:%02lld:%02lldZ",
                        y + (m <= 2), m, d,
                        static_cast<long long>(rem / 3600),
                        static_cast<long long>((rem % 3600) / 60),
                        static_cast<long long>(rem % 60))
                 << '\t'
                 << util::format("%.7f\t%.7f", c.location.lat,
                                 c.location.lng)
                 << '\t' << c.poi << '\n';
  }
  if (!checkin_file.flush())
    throw IoError("save_checkins_snap: write failed for " + checkins_path);
  std::ofstream edge_file(edges_path);
  if (!edge_file)
    throw IoError("save_checkins_snap: cannot open " + edges_path);
  for (const graph::Edge& e : ds.friendships().edges())
    edge_file << e.a << '\t' << e.b << '\n';
  if (!edge_file.flush())
    throw IoError("save_checkins_snap: write failed for " + edges_path);
}

}  // namespace fs::data
