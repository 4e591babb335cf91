// fs::block subsystem tests: cell-index invariants, the inertness of pruned
// pairs (adding pairs the predicate prunes leaves every other output
// byte-identical), and the documented recall-loss path for friends who
// never co-occur.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "block/candidate_gen.h"
#include "block/cell_index.h"
#include "block/feature_cache.h"
#include "core/pipeline.h"
#include "data/synthetic.h"
#include "eval/digest.h"
#include "eval/harness.h"
#include "eval/presets.h"
#include "geo/quadtree.h"
#include "obs/metrics.h"
#include "par/pool.h"
#include "util/error.h"

namespace fs {
namespace {

// ---------- CellIndex invariants ----------

struct IndexedWorld {
  data::SyntheticWorld world;
  std::unique_ptr<geo::QuadtreeDivision> quadtree;
  std::unique_ptr<geo::QuadtreeDivisionView> view;
  std::unique_ptr<geo::TimeSlotting> slots;
  std::unique_ptr<block::CellIndex> index;
};

IndexedWorld make_indexed_world(std::uint64_t seed, std::size_t users = 60,
                                std::size_t sigma = 30) {
  data::SyntheticWorldConfig cfg;
  cfg.user_count = users;
  cfg.poi_count = 160;
  cfg.city_count = 3;
  cfg.weeks = 4;
  cfg.seed = seed;
  IndexedWorld out;
  out.world = data::generate_world(cfg);
  out.quadtree = std::make_unique<geo::QuadtreeDivision>(
      out.world.dataset.poi_coordinates(), sigma);
  out.view = std::make_unique<geo::QuadtreeDivisionView>(*out.quadtree);
  out.slots = std::make_unique<geo::TimeSlotting>(
      out.world.dataset.window_begin(), out.world.dataset.window_end(),
      7 * geo::kSecondsPerDay);
  out.index = std::make_unique<block::CellIndex>(out.world.dataset, *out.view,
                                                 *out.slots);
  return out;
}

TEST(CellIndex, EntriesAndProfilesMatchTrajectories) {
  const IndexedWorld iw = make_indexed_world(11);
  const data::Dataset& ds = iw.world.dataset;
  const block::CellIndex& index = *iw.index;
  ASSERT_EQ(index.user_count(), ds.user_count());
  bool aggregated = false;
  for (data::UserId u = 0; u < ds.user_count(); ++u) {
    // Recount (cellslot, poi) visits and the profile from the raw
    // trajectory.
    std::map<std::pair<std::uint32_t, data::PoiId>, std::uint32_t> counts;
    std::vector<std::uint32_t> expect;
    for (const data::CheckIn& c : ds.trajectory(u)) {
      const std::size_t grid = iw.view->cell_of(c.location);
      const std::size_t slot = iw.slots->slot_of(c.time);
      const auto cell =
          static_cast<std::uint32_t>(grid * index.slot_count() + slot);
      ++counts[{cell, c.poi}];
      expect.push_back(cell);
    }
    const auto entries = index.entries(u);
    ASSERT_EQ(entries.size(), counts.size()) << "user " << u;
    std::size_t i = 0;
    for (const auto& [key, count] : counts) {
      EXPECT_EQ(entries[i].cellslot, key.first) << "user " << u;
      EXPECT_EQ(entries[i].poi, key.second) << "user " << u;
      EXPECT_EQ(entries[i].count, count) << "user " << u;
      aggregated = aggregated || count > 1;
      ++i;
    }
    std::sort(expect.begin(), expect.end());
    expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
    const auto profile = index.cell_profile(u);
    ASSERT_EQ(profile.size(), expect.size()) << "user " << u;
    EXPECT_TRUE(std::equal(profile.begin(), profile.end(), expect.begin()));
  }
  EXPECT_TRUE(aggregated) << "no repeated visit exercised the counts";
}

TEST(CellIndex, RefusesJocWiderThanUint32) {
  // One uniform cell times five billion one-second slots: 1.5e10 JOC
  // columns, which cellslots and JOC columns (uint32) cannot address.
  const IndexedWorld iw = make_indexed_world(31, 10);
  const data::Dataset& ds = iw.world.dataset;
  const geo::UniformGridDivision grid(ds.poi_coordinates(), 1, 1);
  const geo::UniformGridDivisionView view(grid);
  const geo::TimeSlotting slots(0, 5'000'000'000, 1);
  EXPECT_THROW(block::CellIndex(ds, view, slots), BudgetError);
}

TEST(CellIndex, CooccurIsSymmetricAndMatchesProfiles) {
  const IndexedWorld iw = make_indexed_world(13);
  const block::CellIndex& index = *iw.index;
  const auto slot_count = static_cast<std::uint32_t>(index.slot_count());
  for (int tolerance : {0, 1, 2}) {
    for (data::UserId a = 0; a < 25; ++a) {
      for (data::UserId b = a + 1; b < 25; ++b) {
        bool expect = false;
        for (std::uint32_t ca : index.cell_profile(a)) {
          for (std::uint32_t cb : index.cell_profile(b)) {
            if (ca / slot_count != cb / slot_count) continue;
            const int da = static_cast<int>(ca % slot_count);
            const int db = static_cast<int>(cb % slot_count);
            if (std::abs(da - db) <= tolerance) expect = true;
          }
        }
        EXPECT_EQ(index.cooccur(a, b, tolerance), expect)
            << "pair (" << a << ", " << b << ") tol " << tolerance;
        EXPECT_EQ(index.cooccur(b, a, tolerance),
                  index.cooccur(a, b, tolerance));
      }
    }
  }
}

TEST(CellIndex, SignatureTracksContent) {
  const IndexedWorld a = make_indexed_world(17);
  const IndexedWorld b = make_indexed_world(17);
  const IndexedWorld c = make_indexed_world(18);
  EXPECT_EQ(a.index->signature(), b.index->signature());
  EXPECT_NE(a.index->signature(), c.index->signature());
}

TEST(StrongGraph, EdgesAreExactlyStrongCooccurrences) {
  const IndexedWorld iw = make_indexed_world(19, 40);
  const block::CellIndex& index = *iw.index;
  const graph::Graph strong = block::strong_cooccurrence_graph(index);
  ASSERT_EQ(strong.node_count(), index.user_count());
  for (data::UserId a = 0; a < index.user_count(); ++a)
    for (data::UserId b = a + 1; b < index.user_count(); ++b)
      EXPECT_EQ(strong.has_edge(a, b), index.strong_cooccur(a, b))
          << "pair (" << a << ", " << b << ")";
}

TEST(FilterUniverse, SameMaskAndStatsAtAnyThreadCount) {
  // Every pair of a 120-user world (over a hundred chunks), against a
  // serial loop over the same predicate, at 1 and 4 threads.
  const IndexedWorld iw = make_indexed_world(23, 120);
  const block::CellIndex& index = *iw.index;
  const graph::Graph strong = block::strong_cooccurrence_graph(index);
  std::vector<data::UserPair> universe;
  for (data::UserId a = 0; a < index.user_count(); ++a)
    for (data::UserId b = a + 1; b < index.user_count(); ++b)
      universe.push_back({a, b});
  for (const int hops : {0, 2}) {
    block::BlockingConfig config;
    config.slot_tolerance = 0;
    config.hop_expansion = hops;
    std::vector<char> expect(universe.size(), 0);
    block::BlockingStats expect_stats;
    std::vector<int> depth;
    std::vector<graph::NodeId> queue;
    for (std::size_t i = 0; i < universe.size(); ++i) {
      const auto [a, b] = universe[i];
      if (index.cooccur(a, b, config.slot_tolerance)) {
        expect[i] = 1;
        ++expect_stats.cell_candidates;
      } else if (hops > 0 &&
                 block::within_hops(strong, a, b, hops, depth, queue)) {
        expect[i] = 1;
        ++expect_stats.hop_candidates;
      }
    }
    if (hops > 0) {
      ASSERT_GT(expect_stats.hop_candidates, 0u);
    }
    ASSERT_GT(expect_stats.cell_candidates, 0u);
    ASSERT_LT(expect_stats.cell_candidates + expect_stats.hop_candidates,
              universe.size());
    for (const std::size_t threads : {1u, 4u}) {
      par::set_threads(threads);
      block::BlockingStats stats;
      const std::vector<char> keep =
          block::filter_universe(index, strong, universe, config, &stats);
      EXPECT_EQ(keep, expect) << "threads " << threads << " hops " << hops;
      EXPECT_EQ(stats.universe_pairs, universe.size());
      EXPECT_EQ(stats.cell_candidates, expect_stats.cell_candidates);
      EXPECT_EQ(stats.hop_candidates, expect_stats.hop_candidates);
      EXPECT_EQ(stats.scored_pairs,
                expect_stats.cell_candidates + expect_stats.hop_candidates);
      EXPECT_EQ(stats.pruned_pairs, universe.size() - stats.scored_pairs);
    }
  }
  par::set_threads(1);
}

// ---------- Inertness: pruned pairs change nothing else ----------

/// Up to `limit` user pairs outside the experiment's universe that the
/// candidate predicate prunes, under the division and slotting `config`
/// gives a run.
std::vector<data::UserPair> pruned_extra_pairs(
    const core::FriendSeekerConfig& config, const eval::Experiment& experiment,
    std::size_t limit) {
  const data::Dataset& dataset = experiment.dataset;
  const geo::QuadtreeDivision quadtree(dataset.poi_coordinates(),
                                       config.sigma);
  const geo::QuadtreeDivisionView view(quadtree);
  const geo::TimeSlotting slots(
      dataset.window_begin(), dataset.window_end(),
      static_cast<geo::Timestamp>(config.tau_days * geo::kSecondsPerDay));
  const block::CellIndex index(dataset, view, slots);

  std::set<data::UserPair> universe;
  for (const auto* pairs :
       {&experiment.split.train_pairs, &experiment.split.test_pairs})
    for (const data::UserPair& p : *pairs)
      universe.insert(data::make_pair_ordered(p.first, p.second));
  std::vector<data::UserPair> outside;
  const auto n = static_cast<data::UserId>(dataset.user_count());
  for (data::UserId a = 0; a < n; ++a)
    for (data::UserId b = a + 1; b < n; ++b)
      if (!universe.count({a, b})) outside.push_back({a, b});

  const std::vector<char> keep = block::filter_universe(
      index, block::strong_cooccurrence_graph(index), outside,
      config.blocking);
  std::vector<data::UserPair> pruned;
  for (std::size_t i = 0; i < outside.size() && pruned.size() < limit; ++i)
    if (!keep[i]) pruned.push_back(outside[i]);
  return pruned;
}

void expect_pruned_pairs_inert(const eval::BenchPreset& preset) {
  ASSERT_FALSE(preset.seeker.uniform_grid);  // pruned_extra_pairs' division
  const eval::Experiment experiment = eval::make_experiment(preset.world);
  const eval::PairSplit& split = experiment.split;
  const std::vector<data::UserPair> extra =
      pruned_extra_pairs(preset.seeker, experiment, 40);
  // Without pruned extras the test is vacuous.
  ASSERT_FALSE(extra.empty());
  std::vector<data::UserPair> extended = split.test_pairs;
  extended.insert(extended.end(), extra.begin(), extra.end());
  const std::size_t n = split.test_pairs.size();

  core::FriendSeeker seeker(preset.seeker);
  par::set_threads(1);
  const core::FriendSeekerResult base = seeker.run(
      experiment.dataset, split.train_pairs, split.train_labels,
      split.test_pairs);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    par::set_threads(threads);
    const core::FriendSeekerResult more = seeker.run(
        experiment.dataset, split.train_pairs, split.train_labels, extended);
    ASSERT_EQ(more.test_predictions.size(), extended.size());
    ASSERT_EQ(more.test_scores.size(), extended.size());
    // The original pairs' outputs are byte-identical...
    EXPECT_TRUE(std::equal(base.test_predictions.begin(),
                           base.test_predictions.end(),
                           more.test_predictions.begin()));
    EXPECT_EQ(std::memcmp(base.test_scores.data(), more.test_scores.data(),
                          n * sizeof(double)),
              0);
    EXPECT_EQ(eval::graph_digest(more.final_graph),
              eval::graph_digest(base.final_graph));
    // ...and each extra reads non-friend, scores 0.0 and is counted.
    for (std::size_t i = n; i < extended.size(); ++i) {
      EXPECT_EQ(more.test_predictions[i], 0) << "extra pair " << i - n;
      EXPECT_EQ(more.test_scores[i], 0.0) << "extra pair " << i - n;
    }
    EXPECT_EQ(more.blocking.scored_pairs, base.blocking.scored_pairs);
    EXPECT_EQ(more.blocking.pruned_pairs,
              base.blocking.pruned_pairs + extra.size());
  }
  par::set_threads(1);
}

TEST(BlockInertness, TinyPresetPrunedPairsChangeNothingElse) {
  expect_pruned_pairs_inert(eval::bench_preset("tiny"));
}

TEST(BlockInertness, GowallaLikeWorldPrunedPairsChangeNothingElse) {
  // The full gowalla bench preset runs for minutes; this keeps its world
  // shape (multi-city GowallaLike geography, strict same-slot blocking)
  // at a scale sanitizer builds can afford.
  eval::BenchPreset preset = eval::bench_preset("gowalla");
  preset.world.user_count = 110;
  preset.world.poi_count = 320;
  preset.world.weeks = 5;
  preset.world.city_count = 6;
  preset.seeker.sigma = 40;
  preset.seeker.presence.feature_dim = 24;
  preset.seeker.presence.epochs = 5;
  preset.seeker.presence.max_autoencoder_rows = 250;
  preset.seeker.max_iterations = 2;
  preset.seeker.max_svm_train_rows = 400;
  expect_pruned_pairs_inert(preset);
}

// ---------- Recall-loss contract ----------

TEST(BlockRecallLoss, NeverCoOccurringFriendIsPrunedAndCounted) {
  // Two far-apart communities that never mix: users 0-5 check into the
  // western POI cluster, users 6-11 into the eastern one. The hidden
  // friend pair (0, 6) spans the gap — no shared (cell, slot) at any
  // tolerance and no strong-co-occurrence path between the communities —
  // so blocking prunes it, and the documented contract is that it is
  // predicted non-friend and counted, never silently resurrected.
  constexpr std::size_t kUsers = 12;
  std::vector<data::Poi> pois;
  for (int i = 0; i < 6; ++i)
    pois.push_back({{0.001 * i, 0.001 * i}, 0});            // west cluster
  for (int i = 0; i < 6; ++i)
    pois.push_back({{5.0 + 0.001 * i, 5.0 + 0.001 * i}, 0});  // east cluster

  std::vector<data::CheckIn> checkins;
  const auto day = static_cast<geo::Timestamp>(geo::kSecondsPerDay);
  for (data::UserId u = 0; u < kUsers; ++u) {
    const bool east = u >= 6;
    for (int visit = 0; visit < 8; ++visit) {
      data::CheckIn c;
      c.user = u;
      c.poi = static_cast<data::PoiId>((east ? 6 : 0) + (u + visit) % 6);
      c.time = day * static_cast<geo::Timestamp>(1 + visit * 3);
      c.location = pois[c.poi].location;
      checkins.push_back(c);
    }
  }

  graph::Graph friends(kUsers);
  for (data::UserId u = 0; u + 1 < 6; ++u) friends.add_edge(u, u + 1);
  for (data::UserId u = 6; u + 1 < 12; ++u) friends.add_edge(u, u + 1);
  friends.add_edge(0, 6);  // the hidden cross-community friendship

  const data::Dataset dataset =
      data::Dataset::build(kUsers, pois, checkins, friends);

  core::FriendSeekerConfig cfg = eval::default_seeker_config();
  cfg.sigma = 2;  // force a fine division: the clusters get distinct cells
  cfg.presence.feature_dim = 8;
  cfg.presence.epochs = 2;
  cfg.max_iterations = 1;

  const std::vector<data::UserPair> train_pairs = {
      {1, 2}, {2, 3}, {7, 8}, {8, 9},   // positives (in-community friends)
      {1, 4}, {2, 5}, {7, 10}, {8, 11}, // negatives
  };
  const std::vector<int> train_labels = {1, 1, 1, 1, 0, 0, 0, 0};
  const std::vector<data::UserPair> test_pairs = {
      {0, 6},  // the hidden friend pair: never co-occurs
      {3, 4}, {9, 10}, {4, 5},
  };

  const std::uint64_t pruned_before =
      obs::metrics().counter("block.candidates_pruned").value();
  core::FriendSeeker seeker(cfg);
  const core::FriendSeekerResult result =
      seeker.run(dataset, train_pairs, train_labels, test_pairs);

  // The hidden pair is absent from the scored universe...
  EXPECT_GE(result.blocking.pruned_pairs, 1u);
  EXPECT_GE(obs::metrics().counter("block.candidates_pruned").value(),
            pruned_before + result.blocking.pruned_pairs);
  // ...and the documented recall loss: predicted non-friend, never scored.
  EXPECT_EQ(result.test_predictions[0], 0);
  EXPECT_EQ(result.test_scores[0], 0.0);
  EXPECT_FALSE(result.final_graph.has_edge(0, 6));
}

// ---------- FeatureCache mechanics (benchmark layer drive only) ----------

TEST(FeatureCache, InvalidatesOnSignatureChangeOnly) {
  block::FeatureCache cache;
  cache.prepare(42, 4, 2, nullptr);
  double* row = cache.insert_joc({1, 2});
  for (int i = 0; i < 4; ++i) row[i] = static_cast<double>(i);
  ASSERT_NE(cache.find_joc({1, 2}), nullptr);
  EXPECT_GT(cache.bytes(), 0u);

  // Matching prepare: entries survive, counters accrue.
  cache.prepare(42, 4, 2, nullptr);
  const double* hit = cache.find_joc({1, 2});
  ASSERT_NE(hit, nullptr);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(hit[i], static_cast<double>(i));

  // Signature change: everything drops.
  cache.prepare(43, 4, 2, nullptr);
  EXPECT_EQ(cache.find_joc({1, 2}), nullptr);
  EXPECT_EQ(cache.stats().joc_rows, 0u);
}

TEST(FeatureCache, ChargesMemoryAgainstContext) {
  runtime::ExecutionContext context;
  block::FeatureCache cache;
  cache.prepare(7, 64, 16, &context);
  for (std::uint32_t i = 0; i < 200; ++i) cache.insert_joc({i, i + 1});
  EXPECT_GT(cache.bytes(), 0u);
  EXPECT_GE(context.peak_charged(), cache.bytes());
  // Dropping the arenas releases the charges.
  cache.prepare(8, 64, 16, &context);
  EXPECT_EQ(cache.bytes(), 0u);
}

}  // namespace
}  // namespace fs
