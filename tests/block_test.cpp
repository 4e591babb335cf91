// fs::block subsystem tests: cell-index invariants, the candidate-gate
// differential contract (blocked vs dense runs infer bit-identical final
// graphs), and the documented recall-loss path for friends who never
// co-occur.
#include <gtest/gtest.h>

#include <algorithm>
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

TEST(CellIndex, ProfilesMatchTrajectories) {
  const IndexedWorld iw = make_indexed_world(11);
  const data::Dataset& ds = iw.world.dataset;
  const block::CellIndex& index = *iw.index;
  ASSERT_EQ(index.user_count(), ds.user_count());
  for (data::UserId u = 0; u < ds.user_count(); ++u) {
    // Recompute the profile from the raw trajectory.
    std::vector<std::uint32_t> expect;
    for (const data::CheckIn& c : ds.trajectory(u)) {
      const std::size_t grid = iw.view->cell_of(c.location);
      const std::size_t slot = iw.slots->slot_of(c.time);
      expect.push_back(
          static_cast<std::uint32_t>(grid * index.slot_count() + slot));
    }
    std::sort(expect.begin(), expect.end());
    expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
    const auto profile = index.cell_profile(u);
    ASSERT_EQ(profile.size(), expect.size()) << "user " << u;
    EXPECT_TRUE(std::equal(profile.begin(), profile.end(), expect.begin()));
    // Inverted index agrees: the user appears in exactly its cells.
    for (std::uint32_t cell : expect) {
      const auto users = index.users_in_cell(cell);
      EXPECT_TRUE(std::binary_search(users.begin(), users.end(), u));
    }
  }
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

// ---------- Differential: blocked == dense final graph ----------

core::FriendSeekerResult run_with_mode(const eval::BenchPreset& preset,
                                       const eval::Experiment& experiment,
                                       block::BlockingMode mode) {
  core::FriendSeekerConfig cfg = preset.seeker;
  cfg.blocking.mode = mode;
  core::FriendSeeker seeker(cfg);
  return seeker.run(experiment.dataset, experiment.split.train_pairs,
                    experiment.split.train_labels,
                    experiment.split.test_pairs);
}

void expect_differential_identity(const eval::BenchPreset& preset) {
  const eval::Experiment experiment = eval::make_experiment(preset.world);
  const core::FriendSeekerResult off =
      run_with_mode(preset, experiment, block::BlockingMode::kOff);
  const core::FriendSeekerResult on =
      run_with_mode(preset, experiment, block::BlockingMode::kOn);
  EXPECT_FALSE(off.blocking_active);
  EXPECT_TRUE(on.blocking_active);
  // The blocked run must actually have skipped work, or the test is vacuous.
  EXPECT_GT(on.blocking.pruned_pairs, 0u);
  EXPECT_EQ(on.blocking.scored_pairs + on.blocking.pruned_pairs,
            on.blocking.universe_pairs);
  // The candidate gate is part of the model, so the inferred graph and the
  // per-pair labels must match bit for bit across modes.
  EXPECT_EQ(eval::graph_digest(off.final_graph),
            eval::graph_digest(on.final_graph));
  EXPECT_EQ(off.test_predictions, on.test_predictions);
}

TEST(BlockDifferential, TinyPresetBlockedMatchesDense) {
  expect_differential_identity(eval::bench_preset("tiny"));
}

TEST(BlockDifferential, GowallaLikeWorldBlockedMatchesDense) {
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
  expect_differential_identity(preset);
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
  cfg.blocking.mode = block::BlockingMode::kOn;

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

  EXPECT_TRUE(result.blocking_active);
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
