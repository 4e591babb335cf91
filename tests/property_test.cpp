// Parameterized property sweeps: invariants that must hold across whole
// hyperparameter ranges, not just at defaults.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <tuple>

#include "block/candidate_gen.h"
#include "block/cell_index.h"
#include "core/joc.h"
#include "core/pipeline.h"
#include "eval/digest.h"
#include "eval/harness.h"
#include "eval/presets.h"
#include "par/pool.h"
#include "data/obfuscation.h"
#include "data/synthetic.h"
#include "geo/quadtree.h"
#include "graph/generators.h"
#include "graph/khop.h"
#include "graph/metrics.h"
#include "ml/knn.h"
#include "ml/svm.h"
#include "scenario/config.h"
#include "scenario/runner.h"

namespace fs {
namespace {

// ---------- quadtree invariants across sigma ----------

class QuadtreeSigmaSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuadtreeSigmaSweep, PartitionInvariants) {
  util::Rng rng(5);
  std::vector<geo::LatLng> pois;
  for (int i = 0; i < 400; ++i)
    pois.push_back({rng.normal(0.0, 1.0), rng.normal(10.0, 2.0)});
  const std::size_t sigma = GetParam();
  const geo::QuadtreeDivision division(pois, sigma);

  // Every leaf respects sigma (no degenerate coordinates here).
  std::size_t total = 0;
  for (std::size_t cell = 0; cell < division.cell_count(); ++cell) {
    EXPECT_LE(division.cell_pois(cell).size(), sigma);
    total += division.cell_pois(cell).size();
  }
  // Leaves partition the POI set.
  EXPECT_EQ(total, pois.size());
  // Lookup agrees with construction for every POI.
  for (std::size_t i = 0; i < pois.size(); ++i)
    EXPECT_EQ(division.cell_of(pois[i]), division.cell_of_poi(i));
  // Larger sigma never yields more cells than smaller sigma would; checked
  // against the next-coarser division.
  const geo::QuadtreeDivision coarser(pois, sigma * 2);
  EXPECT_LE(coarser.cell_count(), division.cell_count());
}

INSTANTIATE_TEST_SUITE_P(Sigmas, QuadtreeSigmaSweep,
                         ::testing::Values(10, 25, 50, 100, 200, 400));

// ---------- k-hop theorem properties across k ----------

class KHopKSweep : public ::testing::TestWithParam<int> {};

TEST_P(KHopKSweep, TheoremPropertiesHoldForAllK) {
  util::Rng rng(7);
  const int k = GetParam();
  for (int trial = 0; trial < 8; ++trial) {
    const graph::Graph g = graph::watts_strogatz(40, 4, 0.3, rng);
    const auto a = static_cast<graph::NodeId>(rng.index(40));
    const auto b = static_cast<graph::NodeId>((a + 1 + rng.index(38)) % 40);
    graph::KHopOptions options;
    options.k = k;
    const auto sub = graph::extract_khop_subgraph(g, a, b, options);
    // Paths bucketed by actual length; no edge shared across lengths.
    std::set<graph::Edge> seen;
    for (std::size_t bucket = 0; bucket < sub.paths_by_length.size();
         ++bucket) {
      std::set<graph::Edge> in_bucket;
      for (const auto& path : sub.paths_by_length[bucket]) {
        EXPECT_EQ(path.size(), bucket + 3);  // length = edges = bucket + 2
        for (std::size_t i = 0; i + 1 < path.size(); ++i)
          in_bucket.insert(graph::Edge(path[i], path[i + 1]));
      }
      for (const auto& e : in_bucket) {
        EXPECT_FALSE(seen.count(e));
        seen.insert(e);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KHopKSweep, ::testing::Values(2, 3, 4, 5, 6));

// ---------- obfuscation ratio sweep on blurring ----------

class BlurRatioSweep : public ::testing::TestWithParam<double> {};

TEST_P(BlurRatioSweep, BlurringPreservesVolumeAndOwnership) {
  data::SyntheticWorldConfig cfg;
  cfg.user_count = 90;
  cfg.poi_count = 240;
  cfg.city_count = 3;
  cfg.weeks = 4;
  cfg.seed = 33;
  const auto world = data::generate_world(cfg);
  const geo::QuadtreeDivision division(world.dataset.poi_coordinates(), 40);
  util::Rng rng(11);
  const double ratio = GetParam();
  for (const data::Dataset& blurred :
       {data::blur_in_grid(world.dataset, ratio, division, rng),
        data::blur_cross_grid(world.dataset, ratio, division, rng)}) {
    EXPECT_EQ(blurred.checkin_count(), world.dataset.checkin_count());
    for (data::UserId u = 0; u < blurred.user_count(); ++u) {
      ASSERT_EQ(blurred.checkin_count(u), world.dataset.checkin_count(u));
      // Times are untouched by blurring.
      const auto before = world.dataset.trajectory(u);
      const auto after = blurred.trajectory(u);
      for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_EQ(before[i].time, after[i].time);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, BlurRatioSweep,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5, 1.0));

// ---------- JOC invariants under hiding ----------

TEST(JocProperties, HidingNeverIncreasesCellMass) {
  data::SyntheticWorldConfig cfg;
  cfg.user_count = 80;
  cfg.poi_count = 200;
  cfg.city_count = 2;
  cfg.weeks = 4;
  cfg.seed = 21;
  const auto world = data::generate_world(cfg);
  util::Rng rng(13);
  const data::Dataset hidden = data::hide_checkins(world.dataset, 0.4, rng);

  const geo::QuadtreeDivision division(world.dataset.poi_coordinates(), 50);
  const geo::QuadtreeDivisionView view(division);
  const geo::TimeSlotting slots(world.dataset.window_begin(),
                                world.dataset.window_end(),
                                7 * geo::kSecondsPerDay);
  const block::CellIndex full(world.dataset, view, slots);
  const block::CellIndex less(hidden, view, slots);

  core::JocOptions raw;
  raw.log_scale = false;
  std::vector<double> joc_full(full.joc_dim()), joc_less(less.joc_dim());
  ASSERT_EQ(full.joc_dim(), less.joc_dim());
  util::Rng pick(17);
  for (int trial = 0; trial < 30; ++trial) {
    const auto a =
        static_cast<data::UserId>(pick.index(world.dataset.user_count()));
    const auto b =
        static_cast<data::UserId>(pick.index(world.dataset.user_count()));
    if (a == b) continue;
    core::build_joc(full, a, b, joc_full.data(), raw);
    core::build_joc(less, a, b, joc_less.data(), raw);
    for (std::size_t i = 0; i < joc_full.size(); ++i)
      EXPECT_LE(joc_less[i], joc_full[i] + 1e-12)
          << "hiding increased a JOC cell";
  }
}

// ---------- classifier monotonicity checks ----------

class KnnKSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KnnKSweep, ProbabilitiesAreValidForAllK) {
  util::Rng rng(19);
  nn::Matrix x(60, 3);
  std::vector<int> y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t c = 0; c < 3; ++c)
      x(i, c) = rng.normal(y[i] ? 1.0 : -1.0, 1.0);
  }
  ml::KnnClassifier knn(GetParam());
  knn.fit(x, y);
  for (double p : knn.predict_proba(x)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    // Probability is a multiple of 1/min(k, n).
    const double unit = 1.0 / static_cast<double>(std::min<std::size_t>(
                                  GetParam(), 60));
    EXPECT_NEAR(std::round(p / unit) * unit, p, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnKSweep,
                         ::testing::Values(1, 3, 5, 9, 15, 61));

class SvmCSweep : public ::testing::TestWithParam<double> {};

TEST_P(SvmCSweep, TrainsAcrossBoxConstraints) {
  util::Rng rng(23);
  nn::Matrix x(80, 2);
  std::vector<int> y(80);
  for (std::size_t i = 0; i < 80; ++i) {
    y[i] = static_cast<int>(i % 2);
    x(i, 0) = rng.normal(y[i] ? 1.5 : -1.5, 0.7);
    x(i, 1) = rng.normal(0.0, 0.7);
  }
  ml::SvmConfig cfg;
  cfg.c = GetParam();
  ml::SvmClassifier svm(cfg);
  svm.fit(x, y);
  const auto d = svm.decision(x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i)
    correct += (d[i] > 0.0 ? 1 : 0) == y[i];
  EXPECT_GT(correct, 70u) << "C=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Cs, SvmCSweep,
                         ::testing::Values(0.1, 0.5, 1.0, 5.0, 20.0));

// ---------- candidate blocking properties ----------

// ---------- blocking: filter_universe against a generating oracle ----------
//
// The oracle generates the candidate set from the index alone, never
// enumerating pairs: the cell tier joins per-cell user lists (inverted here
// from the cell profiles), the hop tier walks the strong graph. The engine
// never generates candidates; it filters a supplied universe, and the test
// checks the two agree.

/// Cell tier: within-cell pairs plus the forward slot-tolerance window.
/// Pairs are appended unsorted and may repeat.
void append_cell_tier_pairs(const block::CellIndex& index, int slot_tolerance,
                            std::vector<data::UserPair>& out) {
  // cellslot -> users, each list ascending because users are visited in
  // order.
  std::map<std::uint32_t, std::vector<data::UserId>> users_in;
  for (data::UserId u = 0; u < index.user_count(); ++u)
    for (const std::uint32_t cell : index.cell_profile(u))
      users_in[cell].push_back(u);
  // Only the forward window [cell, cell + tolerance] is joined — the
  // backward half is the same pair seen from the other cell.
  const auto slot_count = static_cast<std::uint32_t>(index.slot_count());
  const auto tol = static_cast<std::uint32_t>(std::max(0, slot_tolerance));
  for (auto it = users_in.begin(); it != users_in.end(); ++it) {
    const auto& [cell, users] = *it;
    const std::uint32_t grid = cell / slot_count;
    for (std::size_t x = 0; x < users.size(); ++x)
      for (std::size_t y = x + 1; y < users.size(); ++y)
        out.push_back(data::make_pair_ordered(users[x], users[y]));
    for (auto next = std::next(it);
         next != users_in.end() && next->first <= cell + tol; ++next) {
      if (next->first / slot_count != grid) continue;
      for (const data::UserId u : users)
        for (const data::UserId v : next->second)
          if (u != v) out.push_back(data::make_pair_ordered(u, v));
    }
  }
}

/// Hop tier: every pair at most `hop_expansion` hops apart in the
/// strong-co-occurrence graph. No-op when hop_expansion <= 0.
void append_hop_tier_pairs(const block::CellIndex& index, int hop_expansion,
                           std::vector<data::UserPair>& out) {
  if (hop_expansion <= 0) return;
  const graph::Graph strong = block::strong_cooccurrence_graph(index);
  std::vector<int> depth(strong.node_count(), -1);
  std::vector<graph::NodeId> queue;
  for (graph::NodeId a = 0; a < strong.node_count(); ++a) {
    queue.clear();
    queue.push_back(a);
    depth[a] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const graph::NodeId v = queue[head];
      if (depth[v] >= hop_expansion) break;
      for (graph::NodeId w : strong.neighbors(v)) {
        if (depth[w] >= 0) continue;
        depth[w] = depth[v] + 1;
        queue.push_back(w);
        if (w > a) out.push_back({a, w});
      }
    }
    for (const graph::NodeId v : queue) depth[v] = -1;
  }
}

/// Both tiers, sorted and de-duplicated.
std::vector<data::UserPair> generate_candidate_pairs(
    const block::CellIndex& index, const block::BlockingConfig& config) {
  std::vector<data::UserPair> out;
  append_cell_tier_pairs(index, config.slot_tolerance, out);
  append_hop_tier_pairs(index, config.hop_expansion, out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// Superset property: the generated candidate set must contain every pair
// with at least one shared (cell, slot +/- tolerance) occurrence — blocking
// may keep extra pairs (hop expansion) but may never drop a co-occurring
// one. Checked across randomized worlds, divisions, and tolerances.
TEST(BlockingProperties, CandidatesAreSupersetOfCooccurringPairs) {
  for (const std::uint64_t seed : {3u, 9u, 27u}) {
    data::SyntheticWorldConfig cfg;
    cfg.user_count = 50 + 10 * (seed % 3);
    cfg.poi_count = 150;
    cfg.city_count = 3;
    cfg.weeks = 4;
    cfg.seed = seed;
    const auto world = data::generate_world(cfg);
    const geo::QuadtreeDivision quadtree(world.dataset.poi_coordinates(),
                                         20 + 10 * (seed % 2));
    const geo::QuadtreeDivisionView view(quadtree);
    const geo::TimeSlotting slots(world.dataset.window_begin(),
                                  world.dataset.window_end(),
                                  7 * geo::kSecondsPerDay);
    const block::CellIndex index(world.dataset, view, slots);
    for (const int tolerance : {0, 1, 2}) {
      block::BlockingConfig blocking;
      blocking.slot_tolerance = tolerance;
      blocking.hop_expansion = static_cast<int>(seed % 3);
      const std::vector<data::UserPair> candidates =
          generate_candidate_pairs(index, blocking);
      EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));

      std::vector<data::UserPair> universe;
      const auto n = static_cast<data::UserId>(world.dataset.user_count());
      for (data::UserId a = 0; a < n; ++a)
        for (data::UserId b = a + 1; b < n; ++b)
          universe.push_back({a, b});
      const graph::Graph strong = block::strong_cooccurrence_graph(index);
      const std::vector<char> keep =
          block::filter_universe(index, strong, universe, blocking);

      for (std::size_t i = 0; i < universe.size(); ++i) {
        const auto [a, b] = universe[i];
        if (!index.cooccur(a, b, tolerance)) continue;
        EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                       universe[i]))
            << "co-occurring pair (" << a << ", " << b
            << ") missing from candidates (seed " << seed << ", tol "
            << tolerance << ")";
        EXPECT_TRUE(keep[i]) << "co-occurring pair (" << a << ", " << b
                             << ") filtered out";
      }
      // And generation agrees with filtering: every generated candidate
      // inside the dense universe passes the filter.
      for (const data::UserPair& pair : candidates) {
        const std::size_t row =
            static_cast<std::size_t>(pair.first) * (2 * n - pair.first - 1) /
                2 +
            (pair.second - pair.first - 1);
        ASSERT_LT(row, universe.size());
        ASSERT_EQ(universe[row], pair);
        EXPECT_TRUE(keep[row]);
      }
    }
  }
}

// A run's outputs and its JOC rows must not depend on the thread count: the
// same attack at 1 and at 4 threads leaves bit-equal digests, and the JOC
// store the pipeline builds (build_joc_matrix) holds the same entries at
// both counts, each row densifying to a sequential per-pair build_joc.
TEST(BlockingProperties,
     RunDigestAndJocRowsAreByteIdenticalAcrossThreadCounts) {
  const eval::BenchPreset preset = eval::bench_preset("tiny");
  const eval::Experiment experiment = eval::make_experiment(preset.world);

  auto run_at = [&](std::size_t threads) {
    par::set_threads(threads);
    core::FriendSeeker seeker(preset.seeker);
    return seeker.run(experiment.dataset, experiment.split.train_pairs,
                      experiment.split.train_labels,
                      experiment.split.test_pairs);
  };
  const core::FriendSeekerResult r1 = run_at(1);
  const core::FriendSeekerResult r4 = run_at(4);
  EXPECT_EQ(eval::result_digest(r1), eval::result_digest(r4));
  EXPECT_EQ(eval::graph_digest(r1.final_graph),
            eval::graph_digest(r4.final_graph));

  // JOC rows built with the pipeline's division parameters.
  const geo::QuadtreeDivision quadtree(experiment.dataset.poi_coordinates(),
                                       preset.seeker.sigma);
  const geo::QuadtreeDivisionView view(quadtree);
  const geo::TimeSlotting slots(
      experiment.dataset.window_begin(), experiment.dataset.window_end(),
      static_cast<geo::Timestamp>(preset.seeker.tau_days *
                                  geo::kSecondsPerDay));
  const block::CellIndex occupancy(experiment.dataset, view, slots);
  std::vector<data::UserPair> pairs;
  for (const auto* list :
       {&experiment.split.train_pairs, &experiment.split.test_pairs})
    for (const data::UserPair& raw : *list)
      pairs.push_back(data::make_pair_ordered(raw.first, raw.second));
  par::set_threads(4);
  const nn::SparseRows parallel4 = core::build_joc_matrix(occupancy, pairs);
  par::set_threads(1);
  const nn::SparseRows parallel1 = core::build_joc_matrix(occupancy, pairs);
  ASSERT_EQ(parallel4.rows(), pairs.size());
  ASSERT_EQ(parallel1.nnz(), parallel4.nnz());
  const std::size_t row_bytes = occupancy.joc_dim() * sizeof(double);
  std::vector<double> row1(occupancy.joc_dim()), row4(occupancy.joc_dim());
  std::vector<double> fresh(occupancy.joc_dim());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    parallel1.densify_row(i, row1.data());
    parallel4.densify_row(i, row4.data());
    ASSERT_EQ(parallel1.row_nnz(i), parallel4.row_nnz(i));
    EXPECT_EQ(std::memcmp(parallel1.row_index(i), parallel4.row_index(i),
                          parallel1.row_nnz(i) * sizeof(std::uint32_t)),
              0)
        << "JOC row columns differ across thread counts";
    EXPECT_EQ(std::memcmp(row1.data(), row4.data(), row_bytes), 0)
        << "JOC row differs across thread counts";
    core::build_joc(occupancy, pairs[i].first, pairs[i].second, fresh.data());
    EXPECT_EQ(std::memcmp(row1.data(), fresh.data(), row_bytes), 0)
        << "JOC row differs from a sequential build";
  }
}

// A pruned test pair is never scored; it reports one sentinel below every
// scored pair's score, and nothing else reads it: on seeded tiny worlds a
// run restricted to the scored test pairs (so with no pruned pair and no
// sentinel) gives the same predictions, scores and graph.
TEST(BlockingProperties, PrunedTestPairsRankBelowEveryScoredPair) {
  for (const std::uint64_t seed : {3u, 9u, 27u}) {
    SCOPED_TRACE("world seed " + std::to_string(seed));
    eval::BenchPreset preset = eval::bench_preset("tiny");
    preset.world.seed = seed;
    const eval::Experiment experiment = eval::make_experiment(preset.world);
    const eval::PairSplit& split = experiment.split;
    core::FriendSeeker seeker(preset.seeker);
    const core::FriendSeekerResult all = seeker.run(
        experiment.dataset, split.train_pairs, split.train_labels,
        split.test_pairs);
    ASSERT_GT(all.blocking.pruned_pairs, 0u);
    const double sentinel =
        *std::min_element(all.test_scores.begin(), all.test_scores.end());
    std::vector<data::UserPair> scored;
    std::vector<std::size_t> scored_at;
    std::size_t pruned = 0;
    for (std::size_t i = 0; i < split.test_pairs.size(); ++i) {
      if (all.test_scores[i] == sentinel) {
        ++pruned;
        EXPECT_EQ(all.test_predictions[i], 0) << i;
        continue;
      }
      EXPECT_GE(all.test_scores[i], sentinel + 1.0) << i;
      scored.push_back(split.test_pairs[i]);
      scored_at.push_back(i);
    }
    // Train pairs are always scored, so every pruned pair is a test pair.
    EXPECT_EQ(pruned, all.blocking.pruned_pairs);

    const core::FriendSeekerResult only = seeker.run(
        experiment.dataset, split.train_pairs, split.train_labels, scored);
    EXPECT_EQ(only.blocking.pruned_pairs, 0u);
    ASSERT_EQ(only.test_scores.size(), scored.size());
    for (std::size_t j = 0; j < scored.size(); ++j) {
      EXPECT_EQ(only.test_predictions[j],
                all.test_predictions[scored_at[j]]) << j;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(only.test_scores[j]),
                std::bit_cast<std::uint64_t>(all.test_scores[scored_at[j]]))
          << j;
    }
    EXPECT_EQ(eval::graph_digest(only.final_graph),
              eval::graph_digest(all.final_graph));
  }
}

// ---------- graph metric properties ----------

TEST(GraphProperties, EdgeChangeRatioIsSymmetricInDifference) {
  util::Rng rng(29);
  const graph::Graph a = graph::erdos_renyi(30, 0.2, rng);
  graph::Graph b = a;
  b.add_edge(0, 1) || b.remove_edge(0, 1);
  // Self-comparison is exactly zero.
  EXPECT_DOUBLE_EQ(graph::edge_change_ratio(a, a), 0.0);
  // Adding exactly one edge to a copy changes the count by one.
  graph::Graph c = a;
  graph::NodeId u = 0, v = 0;
  for (u = 0; u < 30 && v == 0; ++u)
    for (graph::NodeId w = u + 1; w < 30; ++w)
      if (!a.has_edge(u, w)) {
        c.add_edge(u, w);
        v = w;
        break;
      }
  ASSERT_NE(v, 0u);
  EXPECT_EQ(graph::Graph::edge_symmetric_difference(a, c), 1u);
}

// ---------- coupled hiding: nested evidence loss across rates ----------

// hide_checkins_coupled promises the hidden set at a lower rate is a strict
// subset of the hidden set at any higher rate (one fixed uniform draw per
// check-in). Checked exactly: the kept multiset at the higher rate must be
// contained in the kept multiset at the lower rate.
TEST(CoupledHidingProperties, HiddenSetsAreNestedAcrossRates) {
  data::SyntheticWorldConfig world = eval::bench_preset("tiny").world;
  world.user_count = 40;
  world.poi_count = 120;
  world.weeks = 2;
  const data::Dataset ds = data::generate_world(world).dataset;

  util::Rng rng(331);
  for (int trial = 0; trial < 3; ++trial) {
    const double low = rng.uniform() * 0.4 + 0.05;
    const double high = low + rng.uniform() * (0.9 - low);
    const std::uint64_t seed = 12345 + static_cast<std::uint64_t>(trial);
    const data::Dataset kept_low = data::hide_checkins_coupled(ds, low, seed);
    const data::Dataset kept_high =
        data::hide_checkins_coupled(ds, high, seed);

    EXPECT_LE(kept_high.checkin_count(), kept_low.checkin_count());
    std::multiset<std::tuple<data::UserId, data::PoiId, geo::Timestamp>>
        low_set;
    for (const data::CheckIn& c : kept_low.checkins())
      low_set.insert({c.user, c.poi, c.time});
    for (const data::CheckIn& c : kept_high.checkins()) {
      const auto it = low_set.find({c.user, c.poi, c.time});
      ASSERT_NE(it, low_set.end())
          << "check-in kept at rate " << high << " but hidden at " << low;
      low_set.erase(it);
    }
    // Nobody loses their last check-in at any rate.
    for (data::UserId u = 0; u < ds.user_count(); ++u)
      if (ds.checkin_count(u) > 0) {
        EXPECT_GE(kept_high.checkin_count(u), 1u);
      }
  }
}

// Under randomized hiding rates the candidate-universe recall — the
// fraction of true friend pairs blocking keeps in the scored universe — is
// monotonically non-increasing as the rate grows, with ZERO slack: coupled
// hiding nests the check-in sets, cell/strong co-occurrence is monotone in
// the data, and k-hop reachability is monotone in the strong graph, so a
// pair kept at a higher rate must be kept at every lower rate.
TEST(CoupledHidingProperties, CandidateRecallMonotoneUnderRisingHidingRate) {
  data::SyntheticWorldConfig cfg = eval::bench_preset("tiny").world;
  cfg.user_count = 60;
  cfg.poi_count = 150;
  cfg.weeks = 3;
  const data::Dataset ds = data::generate_world(cfg).dataset;

  // Division and slotting are fixed from the CLEAN dataset: the defense
  // removes check-ins, it does not move the attacker's grid.
  const geo::QuadtreeDivision division(ds.poi_coordinates(), 40);
  const geo::QuadtreeDivisionView view(division);
  const geo::TimeSlotting slots(ds.window_begin(), ds.window_end(),
                                7 * geo::kSecondsPerDay);
  std::vector<data::UserPair> friends;
  for (const graph::Edge& e : ds.friendships().edges())
    friends.push_back({e.a, e.b});
  const block::BlockingConfig blocking;  // slot_tolerance 1, hops 3

  util::Rng rng(47);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<double> rates;
    for (int i = 0; i < 4; ++i) rates.push_back(rng.uniform() * 0.85);
    std::sort(rates.begin(), rates.end());

    std::vector<char> previous_keep;
    for (double rate : rates) {
      const data::Dataset hidden =
          data::hide_checkins_coupled(ds, rate, 555 + trial);
      const block::CellIndex index(hidden, view, slots);
      const graph::Graph strong = block::strong_cooccurrence_graph(index);
      const std::vector<char> keep =
          block::filter_universe(index, strong, friends, blocking);
      if (!previous_keep.empty()) {
        for (std::size_t i = 0; i < keep.size(); ++i)
          EXPECT_LE(keep[i], previous_keep[i])
              << "friend pair " << friends[i].first << "-"
              << friends[i].second
              << " entered the candidate universe as hiding grew to "
              << rate;
      }
      previous_keep = keep;
    }
  }
}

// End-to-end recall through the scenario runner under rising hiding rates
// on the fixed tiny preset. The evidence loss is exactly nested (above),
// but the classifier's operating point is re-tuned per cell, so the
// end-to-end curve gets a small band for retraining wobble — plus a strict
// bite check: the highest rate must cost recall vs the clean run.
TEST(CoupledHidingProperties, AttackRecallMonotoneUnderRisingHidingRate) {
  scenario::ScenarioConfig config;
  config.name = "hiding-monotone";
  config.worlds.push_back(scenario::WorldSpec{});  // tiny preset

  util::Rng rng(47);
  std::vector<double> rates = {0.0};
  for (int i = 0; i < 2; ++i) rates.push_back(rng.uniform() * 0.35 + 0.05);
  rates.push_back(rng.uniform() * 0.2 + 0.45);  // a rate that must bite
  std::sort(rates.begin(), rates.end());
  for (double rate : rates) {
    scenario::DefenseSpec defense;
    defense.mechanism = rate == 0.0 ? scenario::DefenseMechanism::kNone
                                    : scenario::DefenseMechanism::kHiding;
    defense.rate = rate;
    // Distinct labels even if two draws collide after rounding.
    defense.label = "hiding-" + std::to_string(rate);
    config.defenses.push_back(defense);
  }
  config.attacks.push_back(scenario::AttackSpec{});
  config.models.push_back(scenario::ModelSpec{});
  config.dynamics.push_back(scenario::DynamicsSpec{});

  const scenario::MatrixResult matrix = scenario::run_scenario(config);
  ASSERT_EQ(matrix.cells.size(), rates.size());
  constexpr double kSlack = 0.08;
  for (std::size_t i = 1; i < matrix.cells.size(); ++i) {
    EXPECT_LE(matrix.cells[i].quality.recall,
              matrix.cells[i - 1].quality.recall + kSlack)
        << "recall rose when hiding rate grew " << rates[i - 1] << " -> "
        << rates[i];
  }
  // The sweep must actually bite: the highest rate loses recall vs clean.
  EXPECT_LT(matrix.cells.back().quality.recall,
            matrix.cells.front().quality.recall);
}

}  // namespace
}  // namespace fs
