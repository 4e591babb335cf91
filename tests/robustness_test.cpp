// Failure-injection and edge-case tests: degenerate datasets, silent users,
// pathological graphs, malformed inputs. The attack stack must either
// handle these gracefully or fail loudly — never quietly corrupt results.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/joc.h"
#include "core/pipeline.h"
#include "data/obfuscation.h"
#include "data/synthetic.h"
#include "embed/skipgram.h"
#include "eval/pairs.h"
#include "geo/quadtree.h"
#include "graph/khop.h"
#include "ml/metrics.h"
#include "ml/svm.h"
#include "util/binary_io.h"

namespace fs {
namespace {

// ---------- silent users ----------

data::Dataset dataset_with_silent_users() {
  // Users 0 and 1 are active; users 2 and 3 never check in (the paper
  // filters them, but the library must not crash if they appear).
  std::vector<data::Poi> pois{{{0.1, 0.1}, 0}, {{0.9, 0.9}, 1}};
  std::vector<data::CheckIn> checkins{
      {0, 0, 100, {0.1, 0.1}},
      {0, 1, 5000, {0.9, 0.9}},
      {1, 0, 200, {0.1, 0.1}},
      {1, 0, 9000, {0.1, 0.1}},
  };
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  return data::Dataset::build(4, std::move(pois), std::move(checkins),
                              std::move(g));
}

TEST(Robustness, SilentUsersHaveEmptyTrajectories) {
  const data::Dataset ds = dataset_with_silent_users();
  EXPECT_EQ(ds.checkin_count(2), 0u);
  EXPECT_TRUE(ds.visited_pois(3).empty());
  EXPECT_EQ(ds.common_poi_count(2, 3), 0u);
}

TEST(Robustness, JocForSilentPairIsAllZero) {
  const data::Dataset ds = dataset_with_silent_users();
  const geo::QuadtreeDivision division(ds.poi_coordinates(), 1);
  const geo::QuadtreeDivisionView view(division);
  const geo::TimeSlotting slots(ds.window_begin(), ds.window_end(), 1000);
  const block::CellIndex index(ds, view, slots);
  std::vector<double> joc(index.joc_dim());
  core::build_joc(index, 2, 3, joc.data());
  for (double v : joc) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Robustness, HidingNeverRemovesLastCheckin) {
  // A dataset where every user has exactly one check-in: hiding at any
  // ratio must be a no-op.
  std::vector<data::Poi> pois{{{0.0, 0.0}, 0}};
  std::vector<data::CheckIn> checkins;
  for (data::UserId u = 0; u < 10; ++u)
    checkins.push_back({u, 0, static_cast<geo::Timestamp>(u), {0.0, 0.0}});
  graph::Graph g(10);
  const auto ds =
      data::Dataset::build(10, std::move(pois), std::move(checkins), g);
  util::Rng rng(3);
  const data::Dataset hidden = data::hide_checkins(ds, 0.5, rng);
  EXPECT_EQ(hidden.checkin_count(), 10u);
}

// ---------- pathological geometry ----------

TEST(Robustness, QuadtreeHandlesCollinearAndDuplicatePois) {
  std::vector<geo::LatLng> pois;
  for (int i = 0; i < 50; ++i) pois.push_back({1.0, 2.0});       // duplicates
  for (int i = 0; i < 50; ++i)
    pois.push_back({1.0, 2.0 + i * 1e-4});                       // collinear
  const geo::QuadtreeDivision division(pois, 10);
  for (const auto& p : pois)
    EXPECT_LT(division.cell_of(p), division.cell_count());
}

TEST(Robustness, SingleTimeSlot) {
  const geo::TimeSlotting slots(0, 100, 1000);  // tau > window
  EXPECT_EQ(slots.slot_count(), 1u);
  EXPECT_EQ(slots.slot_of(99), 0u);
}

// ---------- pathological graphs ----------

TEST(Robustness, KHopOnEdgelessGraph) {
  graph::Graph g(10);
  const auto sub = graph::extract_khop_subgraph(g, 0, 9);
  EXPECT_TRUE(sub.empty());
  EXPECT_TRUE(sub.edges().empty());
}

TEST(Robustness, KHopOnStarGraph) {
  // Star: all leaves connect only through the hub. Exactly one 2-path
  // between any two leaves; no longer paths after the hub is consumed.
  graph::Graph g(8);
  for (graph::NodeId v = 1; v < 8; ++v) g.add_edge(0, v);
  graph::KHopOptions options;
  options.k = 5;
  const auto sub = graph::extract_khop_subgraph(g, 1, 7, options);
  EXPECT_EQ(sub.path_count_of_length(2), 1u);
  EXPECT_EQ(sub.path_count(), 1u);
}

TEST(Robustness, KHopCompleteGraphRespectsTheorem) {
  // K6: many short paths; after 2-paths consume all interior vertices no
  // 3-paths can remain.
  graph::Graph g(6);
  for (graph::NodeId a = 0; a < 6; ++a)
    for (graph::NodeId b = a + 1; b < 6; ++b) g.add_edge(a, b);
  const auto sub = graph::extract_khop_subgraph(g, 0, 5);
  EXPECT_EQ(sub.path_count_of_length(2), 4u);  // via each of 1..4
  EXPECT_EQ(sub.path_count_of_length(3), 0u);
}

// ---------- degenerate learning inputs ----------

TEST(Robustness, SvmSurvivesContradictoryLabels) {
  // Identical points with opposite labels: no separator exists; training
  // must terminate and produce a usable (if trivial) classifier.
  nn::Matrix x(20, 2);
  std::vector<int> y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = -1.0;
    y[i] = static_cast<int>(i % 2);
  }
  ml::SvmClassifier svm;
  svm.fit(x, y);
  EXPECT_TRUE(svm.trained());
  const auto pred = svm.predict(x);
  EXPECT_EQ(pred.size(), 20u);
}

TEST(Robustness, ThresholdTuningOnConstantScores) {
  // All scores identical: the only operating points are all-positive or
  // all-negative; tuner must pick all-positive (nonzero F1) and not crash.
  const auto tuned =
      ml::tune_f1_threshold({0.5, 0.5, 0.5, 0.5}, {1, 0, 1, 0});
  EXPECT_DOUBLE_EQ(tuned.threshold, 0.5);
  EXPECT_NEAR(tuned.train_f1, 2.0 / 3.0, 1e-12);  // P=0.5, R=1
}

TEST(Robustness, SkipGramWithDegenerateWalks) {
  // Single-token walks provide no context pairs; training must still
  // return a well-formed embedding.
  const std::vector<std::vector<embed::VocabId>> corpus{{0}, {1}, {2}};
  embed::SkipGramConfig cfg;
  cfg.dim = 4;
  const nn::Matrix emb = embed::train_skipgram(corpus, 3, cfg);
  EXPECT_EQ(emb.rows(), 3u);
  for (std::size_t i = 0; i < emb.size(); ++i)
    EXPECT_TRUE(std::isfinite(emb.data()[i]));
}

// ---------- malformed external input ----------

TEST(Robustness, BinaryReaderRejectsGarbage) {
  std::stringstream stream("garbage-bytes-here");
  util::BinaryReader reader(stream);
  EXPECT_THROW(reader.expect_tag("MLP0"), std::runtime_error);
}

TEST(Robustness, BinaryReaderRejectsImplausibleSizes) {
  std::stringstream stream;
  util::BinaryWriter writer(stream);
  writer.u64(1ull << 40);  // claims a 2^40-entry vector
  util::BinaryReader reader(stream);
  EXPECT_THROW(reader.f64_vector(), std::runtime_error);
}

// ---------- end-to-end resilience ----------

TEST(Robustness, PipelineRunsOnHeavilyObfuscatedData) {
  data::SyntheticWorldConfig world_cfg;
  world_cfg.user_count = 100;
  world_cfg.poi_count = 260;
  world_cfg.city_count = 3;
  world_cfg.weeks = 5;
  world_cfg.seed = 9;
  const auto world = data::generate_world(world_cfg);
  util::Rng rng(4);
  const geo::QuadtreeDivision division(world.dataset.poi_coordinates(), 50);
  // 50 % hiding followed by 50 % cross-grid blurring: the worst case the
  // evaluation exercises, compounded.
  data::Dataset mangled = data::hide_checkins(world.dataset, 0.5, rng);
  mangled = data::blur_cross_grid(mangled, 0.5, division, rng);

  const eval::LabeledPairs pairs = eval::sample_candidate_pairs(mangled);
  const eval::PairSplit split = eval::split_pairs(pairs, 0.7, 5);
  core::FriendSeekerConfig cfg;
  cfg.sigma = 50;
  cfg.presence.feature_dim = 12;
  cfg.presence.epochs = 4;
  cfg.presence.max_autoencoder_rows = 150;
  cfg.max_iterations = 2;
  core::FriendSeeker seeker(cfg);
  const auto result = seeker.run(mangled, split.train_pairs,
                                 split.train_labels, split.test_pairs);
  EXPECT_EQ(result.test_predictions.size(), split.test_pairs.size());
  // Even mangled, the social structure keeps the attack above chance.
  const ml::Prf prf = ml::prf(split.test_labels, result.test_predictions);
  EXPECT_GT(prf.f1, 0.3);
}

}  // namespace
}  // namespace fs
