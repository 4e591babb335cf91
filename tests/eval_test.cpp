#include <gtest/gtest.h>

#include <set>

#include "eval/harness.h"
#include "eval/pairs.h"

namespace fs::eval {
namespace {

data::SyntheticWorldConfig tiny_world() {
  data::SyntheticWorldConfig cfg;
  cfg.user_count = 120;
  cfg.poi_count = 300;
  cfg.city_count = 3;
  cfg.weeks = 6;
  cfg.seed = 55;
  return cfg;
}

// ---------- candidate-pair sampling ----------

TEST(Pairs, PositivesAreExactlyGroundTruthEdges) {
  const auto world = data::generate_world(tiny_world());
  const LabeledPairs pairs = sample_candidate_pairs(world.dataset);
  EXPECT_EQ(pairs.positives(), world.dataset.friendships().edge_count());
  for (std::size_t i = 0; i < pairs.pairs.size(); ++i) {
    const auto [a, b] = pairs.pairs[i];
    EXPECT_EQ(pairs.labels[i] != 0,
              world.dataset.friendships().has_edge(a, b));
  }
}

TEST(Pairs, BalancedNegativeSample) {
  const auto world = data::generate_world(tiny_world());
  const LabeledPairs pairs = sample_candidate_pairs(world.dataset);
  const std::size_t negatives = pairs.pairs.size() - pairs.positives();
  EXPECT_NEAR(static_cast<double>(negatives) /
                  static_cast<double>(pairs.positives()),
              1.0, 0.05);
}

TEST(Pairs, NoDuplicatePairs) {
  const auto world = data::generate_world(tiny_world());
  const LabeledPairs pairs = sample_candidate_pairs(world.dataset);
  std::set<data::UserPair> seen(pairs.pairs.begin(), pairs.pairs.end());
  EXPECT_EQ(seen.size(), pairs.pairs.size());
}

TEST(Pairs, PairsAreCanonicallyOrdered) {
  const auto world = data::generate_world(tiny_world());
  const LabeledPairs pairs = sample_candidate_pairs(world.dataset);
  for (const auto& [a, b] : pairs.pairs) EXPECT_LT(a, b);
}

TEST(Pairs, DeterministicGivenSeed) {
  const auto world = data::generate_world(tiny_world());
  const LabeledPairs a = sample_candidate_pairs(world.dataset);
  const LabeledPairs b = sample_candidate_pairs(world.dataset);
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(Pairs, NegativeRatioScalesSample) {
  const auto world = data::generate_world(tiny_world());
  PairSamplingConfig cfg;
  cfg.negative_ratio = 2.0;
  const LabeledPairs pairs = sample_candidate_pairs(world.dataset, cfg);
  const std::size_t negatives = pairs.pairs.size() - pairs.positives();
  EXPECT_NEAR(static_cast<double>(negatives) /
                  static_cast<double>(pairs.positives()),
              2.0, 0.1);
}

TEST(Pairs, HardNegativesShareAFriend) {
  const auto world = data::generate_world(tiny_world());
  PairSamplingConfig cfg;
  cfg.hard_negative_fraction = 1.0;
  const LabeledPairs pairs = sample_candidate_pairs(world.dataset, cfg);
  std::size_t hard = 0, negatives = 0;
  for (std::size_t i = 0; i < pairs.pairs.size(); ++i) {
    if (pairs.labels[i]) continue;
    ++negatives;
    const auto [a, b] = pairs.pairs[i];
    hard += world.dataset.friendships().common_neighbor_count(a, b) > 0;
  }
  ASSERT_GT(negatives, 0u);
  EXPECT_GT(static_cast<double>(hard) / static_cast<double>(negatives), 0.8);
}

TEST(Pairs, EmptyGraphThrows) {
  std::vector<data::Poi> pois{{{0, 0}, 0}};
  std::vector<data::CheckIn> checkins{{0, 0, 0, {0, 0}},
                                      {1, 0, 1, {0, 0}}};
  graph::Graph g(2);  // no edges
  const auto ds =
      data::Dataset::build(2, std::move(pois), std::move(checkins), g);
  EXPECT_THROW(sample_candidate_pairs(ds), std::invalid_argument);
}

// ---------- splitting ----------

TEST(Pairs, SplitPreservesAllPairs) {
  const auto world = data::generate_world(tiny_world());
  const LabeledPairs all = sample_candidate_pairs(world.dataset);
  const PairSplit split = split_pairs(all, 0.7, 3);
  EXPECT_EQ(split.train_pairs.size() + split.test_pairs.size(),
            all.pairs.size());
  EXPECT_EQ(split.train_pairs.size(), split.train_labels.size());
  EXPECT_EQ(split.test_pairs.size(), split.test_labels.size());
  EXPECT_NEAR(static_cast<double>(split.train_pairs.size()) /
                  static_cast<double>(all.pairs.size()),
              0.7, 0.02);
  // Disjoint.
  std::set<data::UserPair> train(split.train_pairs.begin(),
                                 split.train_pairs.end());
  for (const auto& p : split.test_pairs) EXPECT_EQ(train.count(p), 0u);
}

TEST(Pairs, SplitStratificationHoldsOnOddPools) {
  // Hand-built label sets with odd-sized positive pools: the per-class cut
  // must keep at least one member of every class on each side — tiny pools
  // used to lose a whole class to one split.
  for (const std::size_t positives : {3u, 5u, 7u, 9u, 11u}) {
    LabeledPairs all;
    const std::size_t negatives = positives + 1;  // odd + even mix
    for (std::size_t i = 0; i < positives + negatives; ++i) {
      all.pairs.push_back({static_cast<data::UserId>(i),
                           static_cast<data::UserId>(i + 100)});
      all.labels.push_back(i < positives ? 1 : 0);
    }
    const PairSplit split = split_pairs(all, 0.7, 11);
    const auto count_ones = [](const std::vector<int>& labels) {
      return static_cast<std::size_t>(
          std::count(labels.begin(), labels.end(), 1));
    };
    const std::size_t train_pos = count_ones(split.train_labels);
    const std::size_t test_pos = count_ones(split.test_labels);
    EXPECT_EQ(train_pos + test_pos, positives);
    // Every class present on both sides.
    EXPECT_GE(train_pos, 1u) << positives << " positives";
    EXPECT_GE(test_pos, 1u) << positives << " positives";
    EXPECT_GE(split.train_labels.size() - train_pos, 1u);
    EXPECT_GE(split.test_labels.size() - test_pos, 1u);
    // The train share of each class is within one element of 70 %.
    const double expected_pos = 0.7 * static_cast<double>(positives);
    EXPECT_LE(std::abs(static_cast<double>(train_pos) - expected_pos), 1.0)
        << positives << " positives";
  }
}

TEST(Pairs, SplitIsDeterministicAcrossIdenticalSeeds) {
  const auto world = data::generate_world(tiny_world());
  const LabeledPairs all = sample_candidate_pairs(world.dataset);
  const PairSplit a = split_pairs(all, 0.7, 9);
  const PairSplit b = split_pairs(all, 0.7, 9);
  EXPECT_EQ(a.train_pairs, b.train_pairs);
  EXPECT_EQ(a.train_labels, b.train_labels);
  EXPECT_EQ(a.test_pairs, b.test_pairs);
  EXPECT_EQ(a.test_labels, b.test_labels);
  // A different seed actually reshuffles (not a constant function).
  const PairSplit c = split_pairs(all, 0.7, 10);
  EXPECT_NE(a.train_pairs, c.train_pairs);
}

// ---------- harness ----------

TEST(Harness, MakeExperimentFromPreset) {
  const Experiment e = make_experiment(tiny_world());
  EXPECT_EQ(e.name, "synthetic");
  EXPECT_GT(e.split.train_pairs.size(), 0u);
  EXPECT_GT(e.split.test_pairs.size(), 0u);
  EXPECT_EQ(e.dataset.user_count(), 120u);
}

TEST(Harness, PairBucketsMatchDataset) {
  const auto world = data::generate_world(tiny_world());
  const std::vector<data::UserPair> pairs{{0, 1}, {2, 3}};
  const auto commons = pair_common_locations(world.dataset, pairs);
  ASSERT_EQ(commons.size(), 2u);
  EXPECT_EQ(commons[0], world.dataset.common_poi_count(0, 1));
  const auto checkins = pair_checkin_counts(world.dataset, pairs);
  EXPECT_EQ(checkins[0], world.dataset.checkin_count(0) +
                             world.dataset.checkin_count(1));
}

TEST(Harness, MakeBaselinesReturnsAllFour) {
  const auto baselines = make_baselines();
  ASSERT_EQ(baselines.size(), 4u);
  std::set<std::string> names;
  for (const auto& b : baselines) names.insert(b->name());
  EXPECT_TRUE(names.count("co-location"));
  EXPECT_TRUE(names.count("distance"));
  EXPECT_TRUE(names.count("walk2friends"));
  EXPECT_TRUE(names.count("user-graph-embedding"));
}

TEST(Harness, DefaultSeekerConfigMatchesPaperChoices) {
  const core::FriendSeekerConfig cfg = default_seeker_config();
  EXPECT_EQ(cfg.k, 3);                       // paper: k = 3 optimal
  EXPECT_DOUBLE_EQ(cfg.tau_days, 7.0);       // paper: tau = 7 days peaks
  EXPECT_TRUE(cfg.use_social_feature);
  EXPECT_GT(cfg.max_iterations, 0);
}

TEST(Harness, FriendSeekerAttackAdapterWorksEndToEnd) {
  Experiment e = make_experiment(tiny_world());
  core::FriendSeekerConfig cfg = default_seeker_config();
  cfg.sigma = 60;
  cfg.presence.feature_dim = 16;
  cfg.presence.epochs = 5;
  cfg.presence.max_autoencoder_rows = 150;
  cfg.max_iterations = 2;
  FriendSeekerAttack attack(cfg);
  const ml::Prf prf = run_attack(attack, e);
  EXPECT_GT(prf.f1, 0.4);
  EXPECT_GE(attack.last_result().iterations.size(), 1u);
}

}  // namespace
}  // namespace fs::eval
