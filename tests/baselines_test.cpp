#include <gtest/gtest.h>

#include "baselines/colocation.h"
#include "baselines/distance.h"
#include "baselines/usergraph.h"
#include "baselines/walk2friends.h"
#include "data/synthetic.h"
#include "eval/pairs.h"
#include "ml/metrics.h"

namespace fs::baselines {
namespace {

struct BaselineFixture {
  static data::SyntheticWorldConfig world_config() {
    data::SyntheticWorldConfig cfg;
    cfg.user_count = 130;
    cfg.poi_count = 320;
    cfg.city_count = 3;
    cfg.weeks = 6;
    cfg.seed = 91;
    return cfg;
  }

  data::SyntheticWorld world = data::generate_world(world_config());
  eval::LabeledPairs pairs =
      eval::sample_candidate_pairs(world.dataset, eval::PairSamplingConfig{});
  eval::PairSplit split = eval::split_pairs(pairs, 0.7, 13);

  ml::Prf run(FriendshipAttack& attack) const {
    const auto pred =
        attack.infer(world.dataset, split.train_pairs, split.train_labels,
                     split.test_pairs);
    return ml::prf(split.test_labels, pred);
  }
};

// ---------- shared helpers ----------

TEST(Threshold, TuneAndApply) {
  const TunedThreshold tuned =
      tune_threshold({0.0, 1.0, 2.0, 3.0}, {0, 0, 1, 1});
  EXPECT_GT(tuned.threshold, 1.0);
  EXPECT_LE(tuned.threshold, 2.0);
  EXPECT_EQ(apply_threshold({0.5, 2.5}, tuned.threshold),
            (std::vector<int>{0, 1}));
}

// ---------- co-location ----------

TEST(CoLocation, ZeroCommonLocationsNeverPredictedFriend) {
  BaselineFixture fx;
  CoLocationAttack attack;
  const auto pred =
      attack.infer(fx.world.dataset, fx.split.train_pairs,
                   fx.split.train_labels, fx.split.test_pairs);
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const auto [a, b] = fx.split.test_pairs[i];
    if (fx.world.dataset.common_poi_count(a, b) == 0) {
      EXPECT_EQ(pred[i], 0) << "pair without co-location predicted friend";
    }
  }
}

TEST(CoLocation, ScoreZeroWithoutCommonPois) {
  BaselineFixture fx;
  // Find a pair with no common POIs.
  for (const auto& [a, b] : fx.split.test_pairs) {
    if (fx.world.dataset.common_poi_count(a, b) == 0) {
      EXPECT_DOUBLE_EQ(
          CoLocationAttack::pair_score(fx.world.dataset, a, b, {}), 0.0);
      return;
    }
  }
  FAIL() << "fixture has no zero-co-location pair";
}

TEST(CoLocation, ScoreIncreasesWithSharedRarePois) {
  BaselineFixture fx;
  double best_multi = 0.0;
  bool found_multi = false, found_single = false;
  double some_single = 0.0;
  for (const auto& [a, b] : fx.split.test_pairs) {
    const std::size_t common = fx.world.dataset.common_poi_count(a, b);
    const double score =
        CoLocationAttack::pair_score(fx.world.dataset, a, b, {});
    if (common >= 3 && !found_multi) {
      best_multi = score;
      found_multi = true;
    } else if (common == 1 && !found_single) {
      some_single = score;
      found_single = true;
    }
  }
  if (found_multi && found_single) {
    EXPECT_GT(best_multi, 0.0);
  }
  if (found_single) {
    EXPECT_GT(some_single, 0.0);
  }
}

TEST(CoLocation, BeatsChanceOnSyntheticWorld) {
  BaselineFixture fx;
  CoLocationAttack attack;
  EXPECT_GT(fx.run(attack).f1, 0.4);
}

// ---------- distance ----------

TEST(Distance, CenterLocationIsCentroid) {
  std::vector<data::Poi> pois{{{0.0, 0.0}, 0}, {{2.0, 4.0}, 0}};
  std::vector<data::CheckIn> checkins{
      {0, 0, 0, {0.0, 0.0}}, {0, 1, 1, {2.0, 4.0}}};
  graph::Graph g(1);
  const auto ds =
      data::Dataset::build(1, std::move(pois), std::move(checkins), g);
  const geo::LatLng center = DistanceAttack::center_location(ds, 0);
  EXPECT_DOUBLE_EQ(center.lat, 1.0);
  EXPECT_DOUBLE_EQ(center.lng, 2.0);
}

TEST(Distance, RunsAboveChance) {
  BaselineFixture fx;
  DistanceAttack attack;
  // Distance alone is a weak signal; it should still beat random guessing
  // on same-city-dominated real friendships.
  EXPECT_GT(fx.run(attack).f1, 0.3);
}

// ---------- walk2friends ----------

TEST(Walk2Friends, BipartiteGraphShape) {
  BaselineFixture fx;
  const auto g = Walk2FriendsAttack::build_bipartite(fx.world.dataset);
  EXPECT_EQ(g.node_count(),
            fx.world.dataset.user_count() + fx.world.dataset.poi_count());
  // Users only connect to POIs (ids >= user_count).
  for (embed::VocabId u = 0; u < fx.world.dataset.user_count(); ++u)
    for (const auto& n : g.neighbors(u))
      EXPECT_GE(n.node, fx.world.dataset.user_count());
}

TEST(Walk2Friends, BeatsChance) {
  BaselineFixture fx;
  Walk2FriendsAttack attack;
  EXPECT_GT(fx.run(attack).f1, 0.5);
}

// ---------- user-graph embedding ----------

TEST(UserGraph, MeetingGraphOnlyConnectsCoOccurringUsers) {
  BaselineFixture fx;
  UserGraphConfig cfg;
  const auto g =
      UserGraphAttack::build_meeting_graph(fx.world.dataset, cfg);
  EXPECT_EQ(g.node_count(), fx.world.dataset.user_count());
  // Every meeting edge implies at least one common POI.
  for (embed::VocabId u = 0; u < g.node_count(); ++u)
    for (const auto& n : g.neighbors(u)) {
      if (u < n.node) {
        EXPECT_GT(fx.world.dataset.common_poi_count(u, n.node), 0u);
      }
    }
}

TEST(UserGraph, MeetingWindowControlsEdges) {
  // Two users at the same POI 10 hours apart: a 1-hour window finds no
  // meeting, a 24-hour window does.
  std::vector<data::Poi> pois{{{0.0, 0.0}, 0}};
  std::vector<data::CheckIn> checkins{
      {0, 0, 0, {0.0, 0.0}}, {1, 0, 10 * 3600, {0.0, 0.0}}};
  graph::Graph g(2);
  const auto ds =
      data::Dataset::build(2, std::move(pois), std::move(checkins), g);
  UserGraphConfig narrow;
  narrow.meeting_window = 3600;
  EXPECT_EQ(UserGraphAttack::build_meeting_graph(ds, narrow).degree(0), 0u);
  UserGraphConfig wide;
  wide.meeting_window = 24 * 3600;
  EXPECT_EQ(UserGraphAttack::build_meeting_graph(ds, wide).degree(0), 1u);
}

TEST(UserGraph, CategoryWeightsScaleEdges) {
  std::vector<data::Poi> pois{{{0.0, 0.0}, 2}};  // category 2
  std::vector<data::CheckIn> checkins{
      {0, 0, 0, {0.0, 0.0}}, {1, 0, 100, {0.0, 0.0}}};
  graph::Graph g(2);
  const auto ds =
      data::Dataset::build(2, std::move(pois), std::move(checkins), g);
  UserGraphConfig weighted;
  weighted.category_weight = {1.0, 1.0, 5.0};
  UserGraphConfig plain;
  const auto gw = UserGraphAttack::build_meeting_graph(ds, weighted);
  const auto gp = UserGraphAttack::build_meeting_graph(ds, plain);
  ASSERT_EQ(gw.degree(0), 1u);
  ASSERT_EQ(gp.degree(0), 1u);
  EXPECT_NEAR(gw.neighbors(0)[0].weight, 5.0 * gp.neighbors(0)[0].weight,
              1e-9);
}

TEST(UserGraph, BeatsChance) {
  BaselineFixture fx;
  UserGraphAttack attack;
  EXPECT_GT(fx.run(attack).f1, 0.4);
}

// ---------- cross-baseline sanity ----------

TEST(AllBaselines, ProduceOnePredictionPerTestPair) {
  BaselineFixture fx;
  CoLocationAttack colocation;
  DistanceAttack distance;
  Walk2FriendsAttack walk2friends;
  UserGraphAttack usergraph;
  FriendshipAttack* attacks[] = {&colocation, &distance, &walk2friends,
                                 &usergraph};
  for (FriendshipAttack* attack : attacks) {
    const auto pred =
        attack->infer(fx.world.dataset, fx.split.train_pairs,
                      fx.split.train_labels, fx.split.test_pairs);
    EXPECT_EQ(pred.size(), fx.split.test_pairs.size()) << attack->name();
    for (int p : pred) EXPECT_TRUE(p == 0 || p == 1);
  }
}

}  // namespace
}  // namespace fs::baselines
