// Tests for the extension components: logistic regression, argument
// parsing, and the FriendGuard defense.
#include <gtest/gtest.h>

#include "data/defense.h"
#include "data/synthetic.h"
#include "ml/logistic.h"
#include "util/args.h"

namespace fs {
namespace {

// ---------- logistic regression ----------

void blobs(nn::Matrix& x, std::vector<int>& y, std::size_t n,
           util::Rng& rng) {
  x = nn::Matrix(n, 3);
  y.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t c = 0; c < 3; ++c)
      x(i, c) = rng.normal(y[i] ? 1.2 : -1.2, 1.0);
  }
}

TEST(Logistic, SeparatesBlobs) {
  util::Rng rng(3);
  nn::Matrix train_x, test_x;
  std::vector<int> train_y, test_y;
  blobs(train_x, train_y, 200, rng);
  blobs(test_x, test_y, 100, rng);
  ml::LogisticClassifier clf;
  clf.fit(train_x, train_y);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test_x.rows(); ++i)
    correct += (clf.decision(test_x.row(i)) > 0.0) == (test_y[i] == 1);
  EXPECT_GT(correct, 85u);
}

TEST(Logistic, L2ShrinksWeights) {
  util::Rng rng(7);
  nn::Matrix x;
  std::vector<int> y;
  blobs(x, y, 100, rng);
  ml::LogisticConfig weak;
  weak.l2 = 1e-6;
  ml::LogisticConfig strong;
  strong.l2 = 1.0;
  ml::LogisticClassifier a(weak), b(strong);
  a.fit(x, y);
  b.fit(x, y);
  double norm_a = 0.0, norm_b = 0.0;
  for (double w : a.weights()) norm_a += w * w;
  for (double w : b.weights()) norm_b += w * w;
  EXPECT_LT(norm_b, norm_a);
}

TEST(Logistic, Validation) {
  ml::LogisticConfig bad;
  bad.learning_rate = 0.0;
  EXPECT_THROW(ml::LogisticClassifier{bad}, std::invalid_argument);
  ml::LogisticClassifier clf;
  EXPECT_THROW(clf.fit(nn::Matrix(2, 2), {1}), std::invalid_argument);
  const double query[2] = {0.0, 0.0};
  EXPECT_THROW(clf.decision(query), std::logic_error);
}

// ---------- ArgParser ----------

TEST(Args, ParsesOptionsFlagsAndPositionals) {
  util::ArgParser args;
  args.add_option("alpha", "1.0", "");
  args.add_option("name", "x", "");
  args.add_flag("verbose", "");
  const char* argv[] = {"prog", "file1", "--alpha", "2.5",
                        "--name=bob", "--verbose", "file2"};
  args.parse(7, argv);
  EXPECT_DOUBLE_EQ(args.get_double("alpha"), 2.5);
  EXPECT_EQ(args.get("name"), "bob");
  EXPECT_TRUE(args.get_flag("verbose"));
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "file1");
  EXPECT_EQ(args.positional()[1], "file2");
}

TEST(Args, DefaultsApplyWhenAbsent) {
  util::ArgParser args;
  args.add_option("k", "3", "");
  args.add_flag("quiet", "");
  const char* argv[] = {"prog"};
  args.parse(1, argv);
  EXPECT_EQ(args.get_int("k"), 3);
  EXPECT_FALSE(args.get_flag("quiet"));
}

TEST(Args, RejectsUnknownAndMalformed) {
  util::ArgParser args;
  args.add_option("k", "3", "");
  args.add_flag("quiet", "");
  const char* unknown[] = {"prog", "--mystery", "1"};
  EXPECT_THROW(args.parse(3, unknown), std::invalid_argument);
  util::ArgParser args2;
  args2.add_option("k", "3", "");
  const char* missing[] = {"prog", "--k"};
  EXPECT_THROW(args2.parse(2, missing), std::invalid_argument);
  util::ArgParser args3;
  args3.add_flag("quiet", "");
  const char* flag_value[] = {"prog", "--quiet=1"};
  EXPECT_THROW(args3.parse(2, flag_value), std::invalid_argument);
}

// ---------- FriendGuard defense ----------

data::SyntheticWorldConfig guard_world() {
  data::SyntheticWorldConfig cfg;
  cfg.user_count = 140;
  cfg.poi_count = 350;
  cfg.city_count = 3;
  cfg.weeks = 6;
  cfg.seed = 123;
  return cfg;
}

TEST(FriendGuard, RespectsBudgetAndPreservesCounts) {
  const auto world = data::generate_world(guard_world());
  const geo::QuadtreeDivision division(world.dataset.poi_coordinates(), 60);
  data::FriendGuardConfig cfg;
  cfg.budget = 0.25;
  const data::Dataset protected_ds =
      data::friend_guard(world.dataset, division, cfg);
  EXPECT_EQ(protected_ds.checkin_count(), world.dataset.checkin_count());
  EXPECT_EQ(protected_ds.user_count(), world.dataset.user_count());

  // No more than budget fraction of records perturbed.
  std::multiset<std::tuple<data::UserId, data::PoiId, geo::Timestamp>>
      originals;
  for (const auto& c : world.dataset.checkins())
    originals.insert({c.user, c.poi, c.time});
  std::size_t unchanged = 0;
  for (const auto& c : protected_ds.checkins()) {
    auto it = originals.find({c.user, c.poi, c.time});
    if (it != originals.end()) {
      originals.erase(it);
      ++unchanged;
    }
  }
  const double perturbed =
      1.0 - static_cast<double>(unchanged) /
                static_cast<double>(world.dataset.checkin_count());
  EXPECT_LE(perturbed, 0.26);
}

TEST(FriendGuard, ZeroBudgetIsIdentity) {
  const auto world = data::generate_world(guard_world());
  const geo::QuadtreeDivision division(world.dataset.poi_coordinates(), 60);
  data::FriendGuardConfig cfg;
  cfg.budget = 0.0;
  const data::Dataset protected_ds =
      data::friend_guard(world.dataset, division, cfg);
  for (std::size_t i = 0; i < world.dataset.checkins().size(); ++i) {
    EXPECT_EQ(protected_ds.checkins()[i].poi,
              world.dataset.checkins()[i].poi);
    EXPECT_EQ(protected_ds.checkins()[i].time,
              world.dataset.checkins()[i].time);
  }
}

TEST(FriendGuard, EvidenceScoresTargetCoOccurrences) {
  // Two users meeting at a rare POI must out-score a lone check-in.
  std::vector<data::Poi> pois{{{0.0, 0.0}, 0}, {{1.0, 1.0}, 0}};
  std::vector<data::CheckIn> checkins{
      {0, 0, 1000, {0.0, 0.0}},   // meeting at rare POI
      {1, 0, 2000, {0.0, 0.0}},   // meeting at rare POI
      {2, 1, 5000, {1.0, 1.0}},   // lone visit
  };
  graph::Graph g(3);
  const auto ds = data::Dataset::build(3, std::move(pois),
                                       std::move(checkins), g);
  const auto scores = data::checkin_evidence_scores(ds, {});
  // The dataset is re-sorted by (user, time); user 2's record is last.
  EXPECT_GT(scores[0], scores[2]);
  EXPECT_GT(scores[1], scores[2]);
}

TEST(FriendGuard, RejectsBadBudget) {
  const auto world = data::generate_world(guard_world());
  const geo::QuadtreeDivision division(world.dataset.poi_coordinates(), 60);
  data::FriendGuardConfig cfg;
  cfg.budget = 1.5;
  EXPECT_THROW(data::friend_guard(world.dataset, division, cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace fs
