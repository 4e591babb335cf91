// Incremental spatial-temporal index + live co-occurrence graph for
// streaming ingestion.
//
// The batch pipeline builds one occupancy index (block::CellIndex: per-user
// (cell, slot, POI) counts and cell profiles), the strong-co-occurrence
// graph, and the candidate keep mask from a finished dataset. The stream
// engine maintains the same primitives event-by-event, plus the inverted
// cell -> users maps it needs to find the pairs an event dirties:
//
//   * users and POIs are interned in arrival order; the quadtree spatial
//     division is rebuilt (deterministically, at POI-count doubling
//     thresholds) as the POI universe grows, followed by a full reindex;
//   * each accepted event updates the user's (grid, slot) profile and
//     (grid, slot, POI) visit set, and every pair whose decision inputs
//     could have changed — cell co-occupants within the slot tolerance,
//     strong co-visitors, plus a hop-expansion frontier over the strong
//     graph — is marked dirty;
//   * tick() re-decides only the dirty frontier, in deterministic pair
//     order, under a wall-clock deadline; drain() ticks to a clean state.
//
// Convergence-to-batch rests on a purity argument: decide(u,v) is a pure
// function of the pair's *current* index state, and every input change
// dirties the pair, so any tick schedule (including one interrupted by a
// kill and resumed from the journal) reaches the same fixed point once the
// frontier drains. state_digest() captures exactly that replay-identical
// state — it deliberately excludes tick counters and dirtied-at ticks,
// which depend on scheduling.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "data/loader.h"
#include "geo/quadtree.h"
#include "geo/time_slots.h"
#include "stream/event.h"
#include "util/runtime.h"

namespace fs::stream {

struct EngineConfig {
  std::size_t sigma = 16;      // quadtree leaf capacity (paper's sigma)
  double tau_days = 1.0;       // temporal slot length
  int slot_tolerance = 1;      // adjacent-slot reach for cell co-occurrence
  int hop_expansion = 1;       // strong-graph hops added to the dirty frontier
  double strong_weight = 1.0;  // score weight of a strong co-occurrence
  double cell_weight = 0.5;    // score weight of a shared (grid, ~slot)
  double decide_threshold = 1.0;  // edge iff score >= threshold
  /// Reject events older than watermark - budget (0 disables the check —
  /// the default, because the batch loader accepts any order and
  /// convergence-to-batch requires matching it).
  geo::Timestamp lateness_budget_sec = 0;
  std::size_t deadline_check_stride = 64;
};

struct TickReport {
  std::size_t processed = 0;      // dirty pairs re-decided this tick
  std::size_t remaining = 0;      // dirty pairs left after the tick
  std::size_t edges_added = 0;
  std::size_t edges_removed = 0;
  bool deadline_hit = false;
};

class StreamEngine {
 public:
  explicit StreamEngine(const EngineConfig& config);
  ~StreamEngine();

  /// Validates the event against ingestion state (duplicate explicit id,
  /// staleness) and, on acceptance, applies it to the index and dirties the
  /// affected pair frontier. A rejected event mutates nothing. The stored
  /// event's seq is reassigned to the acceptance ordinal.
  std::optional<RejectReason> ingest(const RawEvent& event);

  /// The ingestion-state checks ingest() would apply (duplicate explicit
  /// id, staleness) without mutating anything — the daemon journals an
  /// accepted frame *before* applying it (WAL ordering), so it needs the
  /// verdict first.
  std::optional<RejectReason> preflight(const RawEvent& event) const;

  /// Re-decides dirty pairs in ascending pair order until the frontier is
  /// clean or the deadline expires (checked every deadline_check_stride
  /// pairs — graceful degradation, never an exception).
  TickReport tick(const runtime::Deadline& deadline);

  /// Ticks with no deadline until the frontier is clean; returns the number
  /// of pairs processed.
  std::size_t drain();

  // -- observers ---------------------------------------------------------
  std::size_t accepted_count() const { return events_.size(); }
  const std::vector<RawEvent>& events() const { return events_; }
  std::size_t user_count() const { return user_ids_.size(); }
  std::size_t poi_count() const { return poi_ids_.size(); }
  std::size_t live_edge_count() const { return live_edges_.size(); }
  /// Live edges as raw-user-id pairs (a < b), sorted.
  std::vector<std::pair<long long, long long>> live_edges_raw() const;
  std::size_t dirty_pair_count() const { return dirty_.size(); }
  std::uint64_t current_tick() const { return tick_counter_; }
  /// Tick at which the oldest still-dirty pair was dirtied (current_tick()
  /// when the frontier is clean). current_tick() - oldest_dirty_tick() is
  /// the staleness the SLO monitors.
  std::uint64_t oldest_dirty_tick() const;
  std::size_t division_rebuilds() const { return division_rebuilds_; }

  /// FNV-1a digest over the replay-identical state: accepted events (all
  /// fields incl. wire bytes), interned id orders, live edges, and the
  /// dirty-pair key set. Excludes tick counters / dirtied-at ticks.
  std::uint64_t state_digest() const;

  /// Identity of the config fields that shape engine state; snapshots carry
  /// it so recovery refuses a snapshot from a differently-configured run.
  std::uint64_t config_fingerprint() const;

  /// Assembles the accepted events into a batch-equivalent Dataset via
  /// data::assemble_from_records — the same selection semantics
  /// (min_checkins floor, max_users cap, ascending-raw-id densification,
  /// record-order POI interning) as load_checkins_snap.
  data::Dataset to_dataset(
      const std::vector<std::pair<long long, long long>>& raw_edges,
      const data::LoadOptions& options = {},
      data::LoadReport* report = nullptr,
      std::vector<long long>* user_ids_out = nullptr) const;

  const EngineConfig& config() const { return config_; }

 private:
  using CellKey = std::uint64_t;  // (grid << 32) | slot
  using Pair = std::pair<std::uint32_t, std::uint32_t>;

  struct CellPoiKey {
    CellKey cell = 0;
    std::uint32_t poi = 0;
    bool operator==(const CellPoiKey& other) const {
      return cell == other.cell && poi == other.poi;
    }
  };
  struct CellPoiHash {
    std::size_t operator()(const CellPoiKey& key) const;
  };

  std::uint32_t slot_of(geo::Timestamp t) const;
  void maybe_rebuild_division();
  void reindex_all();
  /// Applies event fields to profile/visits/inverted/strong structures.
  /// With `mark` set, dirties the affected pair frontier and the user.
  void index_event(std::uint32_t user, const geo::LatLng& location,
                   geo::Timestamp time, std::uint32_t poi, bool mark);
  void mark_dirty(std::uint32_t a, std::uint32_t b);
  void dirty_hop_frontier(std::uint32_t user);
  /// Pure decision from current index state; updates live_edges_.
  void decide(const Pair& pair, TickReport& report);

  EngineConfig config_;
  geo::Timestamp tau_sec_ = geo::kSecondsPerDay;

  std::vector<RawEvent> events_;
  std::unordered_set<std::uint64_t> seen_event_ids_;
  bool has_watermark_ = false;
  geo::Timestamp watermark_ = 0;
  geo::Timestamp window_begin_ = 0;

  std::unordered_map<long long, std::uint32_t> user_index_;
  std::vector<long long> user_ids_;
  std::unordered_map<long long, std::uint32_t> poi_index_;
  std::vector<long long> poi_ids_;
  std::vector<geo::LatLng> poi_coords_;  // first-seen coordinate per POI

  std::unique_ptr<geo::QuadtreeDivision> division_;
  std::size_t division_poi_count_ = 0;
  std::size_t division_rebuilds_ = 0;

  // Per-user index state. All vectors are kept sorted + unique so decide()
  // runs linear merges and iteration order is deterministic.
  std::vector<std::vector<CellKey>> profile_;
  std::vector<std::vector<std::pair<CellKey, std::uint32_t>>> visits_;
  std::vector<std::vector<std::uint32_t>> strong_adj_;
  std::unordered_map<CellKey, std::vector<std::uint32_t>> cell_users_;
  std::unordered_map<CellPoiKey, std::vector<std::uint32_t>, CellPoiHash>
      cellpoi_users_;

  std::set<Pair> live_edges_;
  std::map<Pair, std::uint64_t> dirty_;  // pair -> tick first dirtied
  std::uint64_t tick_counter_ = 0;
};

}  // namespace fs::stream
