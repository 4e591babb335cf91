#include "stream/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>

namespace fs::stream {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void fnv_u64(std::uint64_t& h, std::uint64_t value) {
  fnv_bytes(h, &value, sizeof(value));
}

void fnv_i64(std::uint64_t& h, std::int64_t value) {
  fnv_bytes(h, &value, sizeof(value));
}

void fnv_f64(std::uint64_t& h, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  fnv_bytes(h, &bits, sizeof(bits));
}

void fnv_str(std::uint64_t& h, const std::string& value) {
  std::uint64_t len = value.size();
  fnv_bytes(h, &len, sizeof(len));
  fnv_bytes(h, value.data(), value.size());
}

template <typename T>
bool sorted_insert(std::vector<T>& v, const T& value) {
  const auto it = std::lower_bound(v.begin(), v.end(), value);
  if (it != v.end() && *it == value) return false;
  v.insert(it, value);
  return true;
}

}  // namespace

std::size_t StreamEngine::CellPoiHash::operator()(
    const CellPoiKey& key) const {
  // splitmix64 over the packed key; xor-folding the fields would collide
  // (cell, poi) with (cell ^ d, poi ^ d) and invent strong edges.
  std::uint64_t x = key.cell * 0x9e3779b97f4a7c15ULL + key.poi;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x);
}

StreamEngine::StreamEngine(const EngineConfig& config) : config_(config) {
  tau_sec_ = static_cast<geo::Timestamp>(
      std::max(1.0, config_.tau_days * static_cast<double>(geo::kSecondsPerDay)));
}

StreamEngine::~StreamEngine() = default;

std::uint32_t StreamEngine::slot_of(geo::Timestamp t) const {
  if (t <= window_begin_) return 0;
  const auto slot = (t - window_begin_) / tau_sec_;
  return slot > 0xfffffffell ? 0xfffffffeu : static_cast<std::uint32_t>(slot);
}

std::optional<RejectReason> StreamEngine::preflight(
    const RawEvent& event) const {
  if (event.has_explicit_id &&
      seen_event_ids_.count(event.event_id) != 0)
    return RejectReason::kDuplicateEventId;
  if (config_.lateness_budget_sec > 0 && has_watermark_ &&
      event.time < watermark_ - config_.lateness_budget_sec)
    return RejectReason::kStaleTimestamp;
  return std::nullopt;
}

std::optional<RejectReason> StreamEngine::ingest(const RawEvent& event) {
  if (const auto reason = preflight(event)) return reason;

  // Accepted: from here on every mutation happens, or none (no throws).
  if (!has_watermark_) {
    has_watermark_ = true;
    watermark_ = event.time;
    window_begin_ = event.time;
  } else if (event.time > watermark_) {
    watermark_ = event.time;
  }
  if (event.has_explicit_id) seen_event_ids_.insert(event.event_id);

  events_.push_back(event);
  events_.back().seq = events_.size() - 1;

  auto user_it = user_index_.find(event.user);
  if (user_it == user_index_.end()) {
    const auto dense = static_cast<std::uint32_t>(user_ids_.size());
    user_it = user_index_.emplace(event.user, dense).first;
    user_ids_.push_back(event.user);
    profile_.emplace_back();
    visits_.emplace_back();
    strong_adj_.emplace_back();
  }
  auto poi_it = poi_index_.find(event.poi);
  if (poi_it == poi_index_.end()) {
    const auto dense = static_cast<std::uint32_t>(poi_ids_.size());
    poi_it = poi_index_.emplace(event.poi, dense).first;
    poi_ids_.push_back(event.poi);
    poi_coords_.push_back(event.location);
  }
  maybe_rebuild_division();
  index_event(user_it->second, event.location, event.time, poi_it->second,
              /*mark=*/true);
  return std::nullopt;
}

void StreamEngine::maybe_rebuild_division() {
  if (division_ != nullptr && poi_coords_.size() <= 2 * division_poi_count_)
    return;
  division_ = std::make_unique<geo::QuadtreeDivision>(poi_coords_,
                                                      config_.sigma);
  division_poi_count_ = poi_coords_.size();
  ++division_rebuilds_;
  reindex_all();
}

void StreamEngine::reindex_all() {
  for (auto& p : profile_) p.clear();
  for (auto& v : visits_) v.clear();
  for (auto& a : strong_adj_) a.clear();
  cell_users_.clear();
  cellpoi_users_.clear();
  for (const auto& e : events_)
    index_event(user_index_.at(e.user), e.location, e.time,
                poi_index_.at(e.poi), /*mark=*/false);

  // Division renumbering moved every profile: conservatively dirty every
  // pair that currently co-occurs (within the slot tolerance) plus every
  // live edge — any pair outside that set has score 0 and no edge, so its
  // decision cannot change.
  std::vector<CellKey> keys;
  keys.reserve(cell_users_.size());
  for (const auto& [key, users] : cell_users_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  const auto tol = static_cast<std::uint32_t>(
      config_.slot_tolerance < 0 ? 0 : config_.slot_tolerance);
  for (const auto key : keys) {
    const auto& base = cell_users_.at(key);
    const std::uint64_t grid = key >> 32;
    const auto slot = static_cast<std::uint32_t>(key & 0xffffffffu);
    for (std::uint32_t d = 0; d <= tol; ++d) {
      const CellKey other_key = (grid << 32) | (slot + d);
      const auto other_it = cell_users_.find(other_key);
      if (other_it == cell_users_.end()) continue;
      const auto& other = other_it->second;
      for (const auto a : base)
        for (const auto b : other)
          if (a != b) mark_dirty(a, b);
    }
  }
  for (const auto& edge : live_edges_) mark_dirty(edge.first, edge.second);
}

void StreamEngine::index_event(std::uint32_t user, const geo::LatLng& location,
                               geo::Timestamp time, std::uint32_t poi,
                               bool mark) {
  const std::uint64_t grid = division_->cell_of(location);
  const std::uint32_t slot = slot_of(time);
  const CellKey cell = (grid << 32) | slot;
  bool changed = false;

  if (sorted_insert(profile_[user], cell)) {
    changed = true;
    if (mark) {
      const auto tol = config_.slot_tolerance < 0 ? 0 : config_.slot_tolerance;
      for (int d = -tol; d <= tol; ++d) {
        if (d < 0 && slot < static_cast<std::uint32_t>(-d)) continue;
        const CellKey neighbor = (grid << 32) | (slot + d);
        const auto it = cell_users_.find(neighbor);
        if (it == cell_users_.end()) continue;
        for (const auto v : it->second)
          if (v != user) mark_dirty(user, v);
      }
    }
    sorted_insert(cell_users_[cell], user);
  }

  if (sorted_insert(visits_[user], std::make_pair(cell, poi))) {
    changed = true;
    auto& occupants = cellpoi_users_[CellPoiKey{cell, poi}];
    for (const auto v : occupants) {
      if (v == user) continue;
      sorted_insert(strong_adj_[user], v);
      sorted_insert(strong_adj_[v], user);
      if (mark) mark_dirty(user, v);
    }
    sorted_insert(occupants, user);
  }

  if (changed && mark) dirty_hop_frontier(user);
}

void StreamEngine::mark_dirty(std::uint32_t a, std::uint32_t b) {
  dirty_.emplace(std::minmax(a, b), tick_counter_);
}

void StreamEngine::dirty_hop_frontier(std::uint32_t user) {
  if (config_.hop_expansion <= 0) return;
  std::unordered_set<std::uint32_t> visited{user};
  std::deque<std::pair<std::uint32_t, int>> frontier{{user, 0}};
  while (!frontier.empty()) {
    const auto [node, depth] = frontier.front();
    frontier.pop_front();
    if (depth >= config_.hop_expansion) continue;
    for (const auto next : strong_adj_[node]) {
      if (!visited.insert(next).second) continue;
      mark_dirty(user, next);
      frontier.emplace_back(next, depth + 1);
    }
  }
}

void StreamEngine::decide(const Pair& pair, TickReport& report) {
  const auto& va = visits_[pair.first];
  const auto& vb = visits_[pair.second];
  std::size_t n_strong = 0;
  for (std::size_t i = 0, j = 0; i < va.size() && j < vb.size();) {
    if (va[i] < vb[j]) {
      ++i;
    } else if (vb[j] < va[i]) {
      ++j;
    } else {
      ++n_strong;
      ++i;
      ++j;
    }
  }

  const auto& pa = profile_[pair.first];
  const auto& pb = profile_[pair.second];
  const auto tol = static_cast<std::uint64_t>(
      config_.slot_tolerance < 0 ? 0 : config_.slot_tolerance);
  std::size_t n_cell = 0;
  std::size_t i = 0, j = 0;
  while (i < pa.size() && j < pb.size()) {
    const std::uint64_t ga = pa[i] >> 32;
    const std::uint64_t gb = pb[j] >> 32;
    if (ga < gb) {
      ++i;
    } else if (gb < ga) {
      ++j;
    } else {
      // Common grid: slots on each side are a sorted contiguous run.
      std::size_t ia = i, jb = j;
      while (ia < pa.size() && (pa[ia] >> 32) == ga) ++ia;
      while (jb < pb.size() && (pb[jb] >> 32) == ga) ++jb;
      bool matched = false;
      for (std::size_t x = i, y = j; x < ia && y < jb && !matched;) {
        const auto sa = pa[x] & 0xffffffffu;
        const auto sb = pb[y] & 0xffffffffu;
        const auto gap = sa > sb ? sa - sb : sb - sa;
        if (gap <= tol)
          matched = true;
        else if (sa < sb)
          ++x;
        else
          ++y;
      }
      if (matched) ++n_cell;
      i = ia;
      j = jb;
    }
  }

  const double score = config_.strong_weight * static_cast<double>(n_strong) +
                       config_.cell_weight * static_cast<double>(n_cell);
  const bool edge = score >= config_.decide_threshold;
  const bool had = live_edges_.count(pair) != 0;
  if (edge && !had) {
    live_edges_.insert(pair);
    ++report.edges_added;
  } else if (!edge && had) {
    live_edges_.erase(pair);
    ++report.edges_removed;
  }
}

TickReport StreamEngine::tick(const runtime::Deadline& deadline) {
  ++tick_counter_;
  TickReport report;
  const std::size_t stride =
      config_.deadline_check_stride == 0 ? 64 : config_.deadline_check_stride;
  while (!dirty_.empty()) {
    if (report.processed % stride == 0 && deadline.expired()) {
      report.deadline_hit = true;
      break;
    }
    const auto pair = dirty_.begin()->first;
    dirty_.erase(dirty_.begin());
    decide(pair, report);
    ++report.processed;
  }
  report.remaining = dirty_.size();
  return report;
}

std::size_t StreamEngine::drain() {
  std::size_t total = 0;
  while (!dirty_.empty())
    total += tick(runtime::Deadline::unlimited()).processed;
  return total;
}

std::vector<std::pair<long long, long long>> StreamEngine::live_edges_raw()
    const {
  std::vector<std::pair<long long, long long>> edges;
  edges.reserve(live_edges_.size());
  for (const auto& [a, b] : live_edges_) {
    auto raw = std::minmax(user_ids_[a], user_ids_[b]);
    edges.emplace_back(raw.first, raw.second);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

std::uint64_t StreamEngine::oldest_dirty_tick() const {
  if (dirty_.empty()) return tick_counter_;
  std::uint64_t oldest = tick_counter_;
  for (const auto& [pair, tick] : dirty_) oldest = std::min(oldest, tick);
  return oldest;
}

std::uint64_t StreamEngine::state_digest() const {
  std::uint64_t h = kFnvOffset;
  fnv_u64(h, events_.size());
  for (const auto& e : events_) {
    fnv_i64(h, e.user);
    fnv_i64(h, e.time);
    fnv_f64(h, e.location.lat);
    fnv_f64(h, e.location.lng);
    fnv_i64(h, e.poi);
    fnv_u64(h, e.has_explicit_id ? e.event_id : 0);
    fnv_str(h, e.line);
  }
  fnv_u64(h, user_ids_.size());
  for (const auto id : user_ids_) fnv_i64(h, id);
  fnv_u64(h, poi_ids_.size());
  for (const auto id : poi_ids_) fnv_i64(h, id);
  fnv_u64(h, live_edges_.size());
  for (const auto& [a, b] : live_edges_) {
    fnv_i64(h, user_ids_[a]);
    fnv_i64(h, user_ids_[b]);
  }
  fnv_u64(h, dirty_.size());
  for (const auto& [pair, tick] : dirty_) {
    fnv_i64(h, user_ids_[pair.first]);
    fnv_i64(h, user_ids_[pair.second]);
  }
  return h;
}

std::uint64_t StreamEngine::config_fingerprint() const {
  std::uint64_t h = kFnvOffset;
  fnv_u64(h, config_.sigma);
  fnv_f64(h, config_.tau_days);
  fnv_i64(h, config_.slot_tolerance);
  fnv_i64(h, config_.hop_expansion);
  fnv_f64(h, config_.strong_weight);
  fnv_f64(h, config_.cell_weight);
  fnv_f64(h, config_.decide_threshold);
  fnv_i64(h, config_.lateness_budget_sec);
  return h;
}

data::Dataset StreamEngine::to_dataset(
    const std::vector<std::pair<long long, long long>>& raw_edges,
    const data::LoadOptions& options, data::LoadReport* report,
    std::vector<long long>* user_ids_out) const {
  std::vector<data::RawRecord> records;
  records.reserve(events_.size());
  for (const auto& e : events_) {
    data::RawRecord record;
    record.user = e.user;
    record.time = e.time;
    record.location = e.location;
    record.poi = e.poi;
    records.push_back(record);
  }
  return data::assemble_from_records(records, raw_edges, options, report,
                                     user_ids_out);
}

}  // namespace fs::stream
