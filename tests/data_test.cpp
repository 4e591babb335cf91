#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>

#include "data/dataset.h"
#include "data/loader.h"
#include "data/obfuscation.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "util/error.h"

namespace fs::data {
namespace {

Dataset tiny_dataset() {
  // 3 users, 4 POIs. User 0 and 1 share POIs 0 and 1; user 2 is a loner.
  std::vector<Poi> pois{
      {{0.1, 0.1}, 0}, {{0.2, 0.2}, 1}, {{0.9, 0.9}, 2}, {{0.5, 0.5}, 3}};
  std::vector<CheckIn> checkins{
      {0, 0, 100, {0.1, 0.1}}, {0, 1, 300, {0.2, 0.2}},
      {0, 0, 200, {0.1, 0.1}}, {1, 0, 150, {0.1, 0.1}},
      {1, 1, 400, {0.2, 0.2}}, {2, 2, 500, {0.9, 0.9}},
      {2, 3, 50, {0.5, 0.5}}};
  graph::Graph g(3);
  g.add_edge(0, 1);
  return Dataset::build(3, std::move(pois), std::move(checkins),
                        std::move(g));
}

// ---------- Dataset ----------

TEST(Dataset, TrajectoriesAreTimeSorted) {
  const Dataset ds = tiny_dataset();
  const auto t0 = ds.trajectory(0);
  ASSERT_EQ(t0.size(), 3u);
  EXPECT_EQ(t0[0].time, 100);
  EXPECT_EQ(t0[1].time, 200);
  EXPECT_EQ(t0[2].time, 300);
}

TEST(Dataset, CountsAndWindow) {
  const Dataset ds = tiny_dataset();
  EXPECT_EQ(ds.user_count(), 3u);
  EXPECT_EQ(ds.poi_count(), 4u);
  EXPECT_EQ(ds.checkin_count(), 7u);
  EXPECT_EQ(ds.checkin_count(2), 2u);
  EXPECT_EQ(ds.window_begin(), 50);
  EXPECT_EQ(ds.window_end(), 501);
}

TEST(Dataset, VisitedPoisSortedUnique) {
  const Dataset ds = tiny_dataset();
  EXPECT_EQ(ds.visited_pois(0), (std::vector<PoiId>{0, 1}));
  EXPECT_EQ(ds.visited_pois(2), (std::vector<PoiId>{2, 3}));
}

TEST(Dataset, CommonPoiCount) {
  const Dataset ds = tiny_dataset();
  EXPECT_EQ(ds.common_poi_count(0, 1), 2u);
  EXPECT_EQ(ds.common_poi_count(0, 2), 0u);
}

TEST(Dataset, BuildValidatesIds) {
  std::vector<Poi> pois{{{0, 0}, 0}};
  graph::Graph g(1);
  std::vector<CheckIn> bad_user{{5, 0, 0, {0, 0}}};
  EXPECT_THROW(Dataset::build(1, pois, bad_user, g), std::invalid_argument);
  std::vector<CheckIn> bad_poi{{0, 9, 0, {0, 0}}};
  EXPECT_THROW(Dataset::build(1, pois, bad_poi, g), std::invalid_argument);
  graph::Graph wrong_size(3);
  EXPECT_THROW(Dataset::build(1, pois, {}, wrong_size),
               std::invalid_argument);
}

TEST(Dataset, WithCheckinsKeepsPoisAndGraph) {
  const Dataset ds = tiny_dataset();
  const Dataset replaced = ds.with_checkins({{0, 0, 10, {0.1, 0.1}}});
  EXPECT_EQ(replaced.poi_count(), ds.poi_count());
  EXPECT_EQ(replaced.friendships().edge_count(),
            ds.friendships().edge_count());
  EXPECT_EQ(replaced.checkin_count(), 1u);
}

TEST(Dataset, MakePairOrdered) {
  EXPECT_EQ(make_pair_ordered(5, 2), (UserPair{2, 5}));
  EXPECT_EQ(make_pair_ordered(2, 5), (UserPair{2, 5}));
}

// ---------- synthetic world ----------

SyntheticWorldConfig tiny_world_config() {
  SyntheticWorldConfig cfg;
  cfg.user_count = 120;
  cfg.poi_count = 300;
  cfg.city_count = 3;
  cfg.weeks = 6;
  cfg.seed = 5;
  return cfg;
}

TEST(Synthetic, Deterministic) {
  const SyntheticWorld a = generate_world(tiny_world_config());
  const SyntheticWorld b = generate_world(tiny_world_config());
  EXPECT_EQ(a.dataset.checkin_count(), b.dataset.checkin_count());
  EXPECT_EQ(a.dataset.friendships().edge_count(),
            b.dataset.friendships().edge_count());
  ASSERT_EQ(a.dataset.checkins().size(), b.dataset.checkins().size());
  for (std::size_t i = 0; i < a.dataset.checkins().size(); ++i) {
    EXPECT_EQ(a.dataset.checkins()[i].user, b.dataset.checkins()[i].user);
    EXPECT_EQ(a.dataset.checkins()[i].poi, b.dataset.checkins()[i].poi);
    EXPECT_EQ(a.dataset.checkins()[i].time, b.dataset.checkins()[i].time);
  }
}

TEST(Synthetic, DifferentSeedsDiffer) {
  SyntheticWorldConfig cfg = tiny_world_config();
  const SyntheticWorld a = generate_world(cfg);
  cfg.seed = 6;
  const SyntheticWorld b = generate_world(cfg);
  EXPECT_NE(a.dataset.checkin_count(), b.dataset.checkin_count());
}

TEST(Synthetic, BasicInvariants) {
  const SyntheticWorld world = generate_world(tiny_world_config());
  const Dataset& ds = world.dataset;
  EXPECT_EQ(ds.user_count(), 120u);
  EXPECT_EQ(ds.poi_count(), 300u);
  // Every user has at least the minimum check-ins.
  for (UserId u = 0; u < ds.user_count(); ++u)
    EXPECT_GE(ds.checkin_count(u), 2u);
  // Check-in times inside the window.
  const geo::Timestamp window =
      static_cast<geo::Timestamp>(6) * 7 * geo::kSecondsPerDay;
  for (const CheckIn& c : ds.checkins()) {
    EXPECT_GE(c.time, 0);
    EXPECT_LT(c.time, window);
  }
  // Edge annotations partition the graph's edges.
  EXPECT_EQ(world.real_edges.size() + world.cyber_edges.size(),
            ds.friendships().edge_count());
  for (const graph::Edge& e : world.real_edges)
    EXPECT_TRUE(ds.friendships().has_edge(e.a, e.b));
  for (const graph::Edge& e : world.cyber_edges) {
    EXPECT_TRUE(ds.friendships().has_edge(e.a, e.b));
    EXPECT_TRUE(world.is_cyber_edge(e.a, e.b));
  }
  EXPECT_EQ(world.home_city.size(), ds.user_count());
  EXPECT_EQ(world.home_location.size(), ds.user_count());
}

TEST(Synthetic, RealFriendsAreSameCityBiased) {
  const SyntheticWorld world = generate_world(tiny_world_config());
  std::size_t same_city = 0;
  for (const graph::Edge& e : world.real_edges)
    same_city += (world.home_city[e.a] == world.home_city[e.b]);
  EXPECT_GT(static_cast<double>(same_city) /
                static_cast<double>(world.real_edges.size()),
            0.9);
}

TEST(Synthetic, CyberFriendsAreMostlyCrossCity) {
  const SyntheticWorld world = generate_world(tiny_world_config());
  ASSERT_FALSE(world.cyber_edges.empty());
  std::size_t cross_city = 0;
  for (const graph::Edge& e : world.cyber_edges)
    cross_city += (world.home_city[e.a] != world.home_city[e.b]);
  EXPECT_GT(static_cast<double>(cross_city) /
                static_cast<double>(world.cyber_edges.size()),
            0.6);
}

TEST(Synthetic, FriendsShareMorePoisThanStrangers) {
  const SyntheticWorld world = generate_world(tiny_world_config());
  const Dataset& ds = world.dataset;
  util::Rng rng(3);
  double friend_coloc = 0.0, stranger_coloc = 0.0;
  std::size_t friend_pairs = 0, stranger_pairs = 0;
  for (const graph::Edge& e : world.real_edges) {
    friend_coloc += ds.common_poi_count(e.a, e.b) > 0;
    ++friend_pairs;
  }
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<UserId>(rng.index(ds.user_count()));
    const auto b = static_cast<UserId>(rng.index(ds.user_count()));
    if (a == b || ds.friendships().has_edge(a, b)) continue;
    stranger_coloc += ds.common_poi_count(a, b) > 0;
    ++stranger_pairs;
  }
  ASSERT_GT(friend_pairs, 0u);
  ASSERT_GT(stranger_pairs, 0u);
  EXPECT_GT(friend_coloc / static_cast<double>(friend_pairs),
            2.0 * stranger_coloc / static_cast<double>(stranger_pairs));
}

TEST(Synthetic, CyberFriendsHaveCommonNeighbors) {
  const SyntheticWorld world = generate_world(tiny_world_config());
  const graph::Graph& g = world.dataset.friendships();
  std::size_t with_common = 0;
  for (const graph::Edge& e : world.cyber_edges)
    with_common += g.common_neighbor_count(e.a, e.b) > 0;
  EXPECT_GT(static_cast<double>(with_common) /
                static_cast<double>(world.cyber_edges.size()),
            0.5);
}

TEST(Synthetic, PresetsAreDistinct) {
  const SyntheticWorldConfig gw = gowalla_like();
  const SyntheticWorldConfig bk = brightkite_like();
  EXPECT_NE(gw.name, bk.name);
  // Brightkite is the denser dataset (more check-ins per user).
  EXPECT_LT(bk.checkin_alpha, gw.checkin_alpha);
  EXPECT_GT(bk.covisit_friend_prob, gw.covisit_friend_prob);
}

TEST(Synthetic, RejectsDegenerateConfigs) {
  SyntheticWorldConfig cfg = tiny_world_config();
  cfg.user_count = 3;
  EXPECT_THROW(generate_world(cfg), std::invalid_argument);
  cfg = tiny_world_config();
  cfg.city_count = 0;
  EXPECT_THROW(generate_world(cfg), std::invalid_argument);
}

// ---------- statistics ----------

TEST(Stats, DatasetStats) {
  const Dataset ds = tiny_dataset();
  const DatasetStats s = dataset_stats(ds);
  EXPECT_EQ(s.users, 3u);
  EXPECT_EQ(s.pois, 4u);
  EXPECT_EQ(s.checkins, 7u);
  EXPECT_EQ(s.links, 1u);
  EXPECT_NEAR(s.mean_checkins_per_user, 7.0 / 3.0, 1e-12);
}

TEST(Stats, CoPresenceCensusSumsToOne) {
  const SyntheticWorld world = generate_world(tiny_world_config());
  std::vector<UserPair> friends, strangers;
  for (const graph::Edge& e : world.dataset.friendships().edges())
    friends.push_back({e.a, e.b});
  util::Rng rng(9);
  while (strangers.size() < 200) {
    const auto a =
        static_cast<UserId>(rng.index(world.dataset.user_count()));
    const auto b =
        static_cast<UserId>(rng.index(world.dataset.user_count()));
    if (a == b || world.dataset.friendships().has_edge(a, b)) continue;
    strangers.push_back(make_pair_ordered(a, b));
  }
  const CoPresenceCensus census =
      co_presence_census(world.dataset, friends, strangers);
  double friend_total = 0.0, stranger_total = 0.0;
  for (int cl = 0; cl < 2; ++cl)
    for (int cf = 0; cf < 2; ++cf) {
      friend_total += census.friends[cl][cf];
      stranger_total += census.non_friends[cl][cf];
    }
  EXPECT_NEAR(friend_total, 1.0, 1e-9);
  EXPECT_NEAR(stranger_total, 1.0, 1e-9);
  // Qualitative Table II shape: friends have far more combined evidence.
  EXPECT_GT(census.friends[1][1], census.non_friends[1][1]);
  EXPECT_GT(census.non_friends[0][0], census.friends[0][0]);
}

TEST(Stats, CountCdfBasics) {
  const CountCdf cdf({0, 0, 1, 2, 5});
  EXPECT_DOUBLE_EQ(cdf.at(0), 0.4);
  EXPECT_DOUBLE_EQ(cdf.at(1), 0.6);
  EXPECT_DOUBLE_EQ(cdf.at(4), 0.8);
  EXPECT_DOUBLE_EQ(cdf.at(5), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(99), 1.0);
  EXPECT_EQ(cdf.max_value(), 5u);
  EXPECT_EQ(cdf.sample_count(), 5u);
}

TEST(Stats, PairCountVectors) {
  const Dataset ds = tiny_dataset();
  const std::vector<UserPair> pairs{{0, 1}, {0, 2}};
  EXPECT_EQ(common_poi_counts(ds, pairs), (std::vector<std::size_t>{2, 0}));
  EXPECT_EQ(common_friend_counts(ds.friendships(), pairs),
            (std::vector<std::size_t>{0, 0}));
}

// ---------- obfuscation ----------

class ObfuscationRatioTest : public ::testing::TestWithParam<double> {};

TEST_P(ObfuscationRatioTest, HidingRemovesApproximatelyRatio) {
  const SyntheticWorld world = generate_world(tiny_world_config());
  util::Rng rng(21);
  const double ratio = GetParam();
  const Dataset hidden = hide_checkins(world.dataset, ratio, rng);
  const auto original = static_cast<double>(world.dataset.checkin_count());
  const auto remaining = static_cast<double>(hidden.checkin_count());
  EXPECT_NEAR(1.0 - remaining / original, ratio, 0.03);
  // Nobody is stripped bare.
  for (UserId u = 0; u < hidden.user_count(); ++u)
    EXPECT_GE(hidden.checkin_count(u), 1u);
}

INSTANTIATE_TEST_SUITE_P(Ratios, ObfuscationRatioTest,
                         ::testing::Values(0.1, 0.2, 0.3, 0.4, 0.5));

TEST(Obfuscation, HidingZeroIsIdentity) {
  const SyntheticWorld world = generate_world(tiny_world_config());
  util::Rng rng(22);
  const Dataset hidden = hide_checkins(world.dataset, 0.0, rng);
  EXPECT_EQ(hidden.checkin_count(), world.dataset.checkin_count());
}

TEST(Obfuscation, RejectsBadRatio) {
  const Dataset ds = tiny_dataset();
  util::Rng rng(23);
  EXPECT_THROW(hide_checkins(ds, -0.1, rng), std::invalid_argument);
  EXPECT_THROW(hide_checkins(ds, 1.5, rng), std::invalid_argument);
}

TEST(Obfuscation, InGridBlurStaysInGrid) {
  const SyntheticWorld world = generate_world(tiny_world_config());
  const geo::QuadtreeDivision division(world.dataset.poi_coordinates(), 40);
  util::Rng rng(25);
  const Dataset blurred = blur_in_grid(world.dataset, 0.5, division, rng);
  EXPECT_EQ(blurred.checkin_count(), world.dataset.checkin_count());
  // POIs may change but never leave their quadtree cell; compare sorted
  // per-user multisets of cells.
  for (UserId u = 0; u < world.dataset.user_count(); ++u) {
    std::multiset<std::size_t> before, after;
    for (const CheckIn& c : world.dataset.trajectory(u))
      before.insert(division.cell_of_poi(c.poi));
    for (const CheckIn& c : blurred.trajectory(u))
      after.insert(division.cell_of_poi(c.poi));
    EXPECT_EQ(before, after);
  }
}

TEST(Obfuscation, InGridBlurChangesSomePois) {
  const SyntheticWorld world = generate_world(tiny_world_config());
  const geo::QuadtreeDivision division(world.dataset.poi_coordinates(), 40);
  util::Rng rng(27);
  const Dataset blurred = blur_in_grid(world.dataset, 0.5, division, rng);
  std::size_t changed = 0;
  const auto& before = world.dataset.checkins();
  // Both datasets sort identically by (user, time, poi) only if POIs keep
  // order; count per-user multiset differences instead.
  for (UserId u = 0; u < world.dataset.user_count(); ++u) {
    std::multiset<PoiId> a, b;
    for (const CheckIn& c : world.dataset.trajectory(u)) a.insert(c.poi);
    for (const CheckIn& c : blurred.trajectory(u)) b.insert(c.poi);
    if (a != b) ++changed;
  }
  (void)before;
  EXPECT_GT(changed, world.dataset.user_count() / 4);
}

TEST(Obfuscation, CrossGridBlurMovesAcrossCells) {
  const SyntheticWorld world = generate_world(tiny_world_config());
  const geo::QuadtreeDivision division(world.dataset.poi_coordinates(), 40);
  util::Rng rng(29);
  const Dataset blurred =
      blur_cross_grid(world.dataset, 1.0, division, rng);
  EXPECT_EQ(blurred.checkin_count(), world.dataset.checkin_count());
  // With ratio 1.0, a sizable share of check-ins must land in a different
  // cell than any of the user's original cells would allow at that index.
  std::size_t moved = 0, total = 0;
  for (UserId u = 0; u < world.dataset.user_count(); ++u) {
    std::multiset<std::size_t> before;
    for (const CheckIn& c : world.dataset.trajectory(u))
      before.insert(division.cell_of_poi(c.poi));
    for (const CheckIn& c : blurred.trajectory(u)) {
      ++total;
      if (before.count(division.cell_of_poi(c.poi)) == 0) ++moved;
    }
  }
  EXPECT_GT(static_cast<double>(moved) / static_cast<double>(total), 0.2);
}

TEST(Obfuscation, BlurKeepsLocationConsistentWithPoi) {
  const SyntheticWorld world = generate_world(tiny_world_config());
  const geo::QuadtreeDivision division(world.dataset.poi_coordinates(), 40);
  util::Rng rng(31);
  const Dataset blurred =
      blur_cross_grid(world.dataset, 0.5, division, rng);
  for (const CheckIn& c : blurred.checkins()) {
    EXPECT_DOUBLE_EQ(c.location.lat, blurred.poi(c.poi).location.lat);
    EXPECT_DOUBLE_EQ(c.location.lng, blurred.poi(c.poi).location.lng);
  }
}

// ---------- loader ----------

TEST(Loader, ParseIso8601) {
  EXPECT_EQ(parse_iso8601_utc("1970-01-01T00:00:00Z"), 0);
  EXPECT_EQ(parse_iso8601_utc("1970-01-02T00:00:01Z"), 86401);
  // SNAP uses this format; also accept a space separator.
  EXPECT_EQ(parse_iso8601_utc("1970-01-01 01:00:00"), 3600);
  EXPECT_THROW(parse_iso8601_utc("not-a-time"), ParseError);
  EXPECT_THROW(parse_iso8601_utc("1970-13-01T00:00:00Z"), ParseError);
  // Years outside 0000-9999 are refused; near INT_MIN the calendar
  // arithmetic would overflow.
  EXPECT_EQ(parse_iso8601_utc("0000-03-01T00:00:00Z"), -719468LL * 86400);
  EXPECT_NO_THROW(parse_iso8601_utc("9999-12-31T23:59:59Z"));
  EXPECT_THROW(parse_iso8601_utc("10000-01-01T00:00:00Z"), ParseError);
  EXPECT_THROW(parse_iso8601_utc("-1-01-01T00:00:00Z"), ParseError);
  EXPECT_THROW(parse_iso8601_utc("-2147483648-01-01T00:00:00Z"), ParseError);
}

TEST(Loader, ParseIso8601RejectsImpossibleCalendarDates) {
  // Field-wise range checks alone would accept these.
  EXPECT_THROW(parse_iso8601_utc("2010-02-31T00:00:00Z"), ParseError);
  EXPECT_THROW(parse_iso8601_utc("2010-04-31T00:00:00Z"), ParseError);
  EXPECT_THROW(parse_iso8601_utc("2010-01-00T00:00:00Z"), ParseError);
  // Leap-year handling: 2012 has a Feb 29, 2011 and 2100 do not.
  EXPECT_NO_THROW(parse_iso8601_utc("2012-02-29T00:00:00Z"));
  EXPECT_THROW(parse_iso8601_utc("2011-02-29T00:00:00Z"), ParseError);
  EXPECT_THROW(parse_iso8601_utc("2100-02-29T00:00:00Z"), ParseError);
  EXPECT_NO_THROW(parse_iso8601_utc("2000-02-29T00:00:00Z"));
}

TEST(Loader, ParseIso8601RejectsTrailingGarbage) {
  EXPECT_THROW(parse_iso8601_utc("1970-01-01T00:00:00Zjunk"), ParseError);
  EXPECT_THROW(parse_iso8601_utc("1970-01-01T00:00:00+02:00"), ParseError);
  // A lone 'Z' and trailing whitespace stay legal.
  EXPECT_NO_THROW(parse_iso8601_utc("1970-01-01T00:00:00Z "));
  EXPECT_NO_THROW(parse_iso8601_utc("1970-01-01T00:00:00"));
}

TEST(Loader, RoundTripPreservesStructure) {
  const SyntheticWorld world = generate_world(tiny_world_config());
  const std::string dir = testing::TempDir() + "/fs_loader_test";
  std::filesystem::create_directories(dir);
  save_checkins_snap(world.dataset, dir + "/checkins.txt",
                     dir + "/edges.txt");
  const Dataset loaded =
      load_checkins_snap(dir + "/checkins.txt", dir + "/edges.txt");
  EXPECT_EQ(loaded.user_count(), world.dataset.user_count());
  EXPECT_EQ(loaded.checkin_count(), world.dataset.checkin_count());
  EXPECT_EQ(loaded.friendships().edge_count(),
            world.dataset.friendships().edge_count());
  // Trajectory sizes survive the round trip.
  for (UserId u = 0; u < loaded.user_count(); ++u)
    EXPECT_EQ(loaded.checkin_count(u), world.dataset.checkin_count(u));
}

TEST(Loader, MinCheckinsFilterDropsSparseUsers) {
  const std::string dir = testing::TempDir() + "/fs_loader_filter";
  std::filesystem::create_directories(dir);
  {
    std::ofstream checkins(dir + "/checkins.txt");
    checkins << "100\t1970-01-01T00:00:00Z\t1.0\t2.0\t7\n";
    checkins << "100\t1970-01-02T00:00:00Z\t1.0\t2.0\t7\n";
    checkins << "200\t1970-01-01T00:00:00Z\t3.0\t4.0\t8\n";  // only once
    std::ofstream edges(dir + "/edges.txt");
    edges << "100\t200\n";
  }
  const Dataset ds =
      load_checkins_snap(dir + "/checkins.txt", dir + "/edges.txt");
  EXPECT_EQ(ds.user_count(), 1u);  // user 200 dropped
  EXPECT_EQ(ds.checkin_count(), 2u);
  EXPECT_EQ(ds.friendships().edge_count(), 0u);  // edge endpoint dropped
}

TEST(Loader, RoundTripPreservesCoordinates) {
  // %.7f output keeps ~1 cm of latitude; the reloaded coordinates must
  // agree to within half an ulp of that last printed digit.
  const SyntheticWorld world = generate_world(tiny_world_config());
  const std::string dir = testing::TempDir() + "/fs_loader_coords";
  std::filesystem::create_directories(dir);
  save_checkins_snap(world.dataset, dir + "/checkins.txt",
                     dir + "/edges.txt");
  const Dataset loaded =
      load_checkins_snap(dir + "/checkins.txt", dir + "/edges.txt");
  ASSERT_EQ(loaded.user_count(), world.dataset.user_count());
  for (UserId u = 0; u < loaded.user_count(); ++u) {
    const auto before = world.dataset.trajectory(u);
    const auto after = loaded.trajectory(u);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      // The saver rebases times onto its fake 2010-01-01 date range
      // (epoch day 14610); the offset is constant so ordering and gaps
      // survive exactly.
      EXPECT_EQ(before[i].time + 14610LL * geo::kSecondsPerDay,
                after[i].time);
      EXPECT_NEAR(before[i].location.lat, after[i].location.lat, 5e-8);
      EXPECT_NEAR(before[i].location.lng, after[i].location.lng, 5e-8);
    }
  }
}

TEST(Loader, FilteredUsersLeaveNoPoiResidue) {
  const std::string dir = testing::TempDir() + "/fs_loader_residue";
  std::filesystem::create_directories(dir);
  {
    std::ofstream checkins(dir + "/checkins.txt");
    checkins << "100\t1970-01-01T00:00:00Z\t1.0\t2.0\t7\n";
    checkins << "100\t1970-01-02T00:00:00Z\t1.0\t2.0\t7\n";
    // User 200 falls below the activity floor; POI 8 is visited only by
    // them and must not be interned.
    checkins << "200\t1970-01-01T00:00:00Z\t3.0\t4.0\t8\n";
    std::ofstream edges(dir + "/edges.txt");
    edges << "100\t200\n";
  }
  const Dataset ds =
      load_checkins_snap(dir + "/checkins.txt", dir + "/edges.txt");
  EXPECT_EQ(ds.user_count(), 1u);
  EXPECT_EQ(ds.poi_count(), 1u);
}

TEST(Loader, MissingFileThrows) {
  EXPECT_THROW(load_checkins_snap("/nonexistent/a", "/nonexistent/b"),
               IoError);
  // A missing edge file also surfaces as IoError, after the check-in
  // passes succeeded.
  const std::string dir = testing::TempDir() + "/fs_loader_noedges";
  std::filesystem::create_directories(dir);
  {
    std::ofstream checkins(dir + "/checkins.txt");
    checkins << "1\t1970-01-01T00:00:00Z\t1.0\t2.0\t7\n";
    checkins << "1\t1970-01-02T00:00:00Z\t1.0\t2.0\t7\n";
  }
  EXPECT_THROW(
      load_checkins_snap(dir + "/checkins.txt", dir + "/missing.txt"),
      IoError);
}

void write_messy_world(const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::ofstream checkins(dir + "/checkins.txt");
  checkins << "100\t1970-01-01T00:00:00Z\t1.0\t2.0\t7\n";
  checkins << "100\t1970-01-02T00:00:00Z\t1.0\t2.0\t7\n";
  checkins << "300\n";                                           // short
  checkins << "300\t1970-02-31T00:00:00Z\t1.0\t2.0\t7\n";        // bad date
  checkins << "300\t1970-01-01T00:00:00Z\tabc\t2.0\t7\n";        // bad num
  checkins << "300\t1970-01-01T00:00:00Z\t95.0\t2.0\t7\n";       // range
  checkins << "300\t1970-01-03T00:00:00Z\t1.5\t2.5\t9\n";
  checkins << "300\t1970-01-04T00:00:00Z\t1.5\t2.5\t9\n";
  std::ofstream edges(dir + "/edges.txt");
  edges << "100\t300\n";
  edges << "100\n";         // short
  edges << "100\txyz\n";    // bad number
}

TEST(Loader, StrictModeThrowsOnFirstBadLine) {
  const std::string dir = testing::TempDir() + "/fs_loader_strict";
  write_messy_world(dir);
  LoadOptions options;
  options.strictness = Strictness::kStrict;
  EXPECT_THROW(load_checkins_snap(dir + "/checkins.txt", dir + "/edges.txt",
                                  options),
               ParseError);
}

TEST(Loader, PermissiveModeQuarantinesAndCounts) {
  const std::string dir = testing::TempDir() + "/fs_loader_permissive";
  write_messy_world(dir);
  LoadOptions options;
  options.strictness = Strictness::kPermissive;
  LoadReport report;
  const Dataset ds = load_checkins_snap(dir + "/checkins.txt",
                                        dir + "/edges.txt", options, &report);
  EXPECT_EQ(ds.user_count(), 2u);
  EXPECT_EQ(ds.checkin_count(), 4u);
  EXPECT_EQ(ds.friendships().edge_count(), 1u);

  EXPECT_EQ(report.checkin_lines, 8u);
  EXPECT_EQ(report.accepted_checkins, 4u);
  EXPECT_EQ(report.short_lines, 1u);
  EXPECT_EQ(report.bad_timestamps, 1u);
  EXPECT_EQ(report.bad_numbers, 1u);
  EXPECT_EQ(report.out_of_range_coords, 1u);
  EXPECT_EQ(report.quarantined_checkins(), 4u);

  EXPECT_EQ(report.edge_lines, 3u);
  EXPECT_EQ(report.accepted_edges, 1u);
  EXPECT_EQ(report.short_edge_lines, 1u);
  EXPECT_EQ(report.bad_edge_numbers, 1u);
  EXPECT_EQ(report.quarantined_edges(), 2u);

  EXPECT_FALSE(report.sample_bad_lines.empty());
  EXPECT_FALSE(report.summary().empty());
}

}  // namespace
}  // namespace fs::data
