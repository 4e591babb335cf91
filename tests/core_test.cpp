#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>

#include "core/joc.h"
#include "core/pipeline.h"
#include "core/presence.h"
#include "core/social.h"
#include "data/synthetic.h"
#include "eval/pairs.h"
#include "graph/generators.h"
#include "ml/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fs::core {
namespace {

// A fixed 2-user world on a 1-cell spatial division for exact JOC checks.
struct FixtureWorld {
  data::Dataset dataset;
  geo::UniformGridDivision division;
  geo::TimeSlotting slots;

  FixtureWorld()
      : dataset(make_dataset()),
        division(dataset.poi_coordinates(), 1, 2),  // 2 spatial cells
        slots(0, 200, 100) {}                       // 2 time slots

  static data::Dataset make_dataset() {
    // POIs: 0 and 1 in the west cell (lng < 0.5), 2 in the east cell.
    std::vector<data::Poi> pois{
        {{0.5, 0.1}, 0}, {{0.5, 0.2}, 1}, {{0.5, 0.9}, 2}};
    // User 0: POI 0 at t=10 (slot 0), POI 0 at t=150 (slot 1),
    //         POI 2 at t=20 (slot 0).
    // User 1: POI 0 at t=30 (slot 0), POI 1 at t=40 (slot 0).
    std::vector<data::CheckIn> checkins{
        {0, 0, 10, {0.5, 0.1}},
        {0, 0, 150, {0.5, 0.1}},
        {0, 2, 20, {0.5, 0.9}},
        {1, 0, 30, {0.5, 0.1}},
        {1, 1, 40, {0.5, 0.2}},
        // Anchor check-ins pinning the observation window to [10, 200):
        {2, 2, 199, {0.5, 0.9}},
    };
    graph::Graph g(3);
    g.add_edge(0, 1);
    return data::Dataset::build(3, std::move(pois), std::move(checkins),
                                std::move(g));
  }
};

// ---------- Occupancy index / JOC ----------

TEST(Joc, OccupancyIndexAggregatesCounts) {
  const FixtureWorld w;
  const geo::UniformGridDivisionView view(w.division);
  const block::CellIndex index(w.dataset, view, w.slots);
  EXPECT_EQ(index.grid_count(), 2u);
  EXPECT_EQ(index.slot_count(), 2u);
  EXPECT_EQ(index.joc_dim(), 12u);
  // User 0: 3 check-ins, one POI repeated at different slots.
  const auto entries = index.entries(0);
  ASSERT_EQ(entries.size(), 3u);
  for (const block::CellIndex::Entry& e : entries) EXPECT_EQ(e.count, 1u);
}

TEST(Joc, ValuesMatchHandComputation) {
  const FixtureWorld w;
  const geo::UniformGridDivisionView view(w.division);
  const block::CellIndex index(w.dataset, view, w.slots);
  JocOptions options;
  options.log_scale = false;
  std::vector<double> joc(index.joc_dim());
  build_joc(index, 0, 1, joc.data(), options);
  // Layout: [n_a | n_b | n_ab], each 4 cells (cellslot = grid*2 + slot).
  // West cell (grid 0): user 0 has 1 check-in in slot 0 and 1 in slot 1;
  // user 1 has 2 in slot 0. Both visited POI 0 in (west, slot 0) -> n_ab=1.
  const double* na = joc.data();
  const double* nb = joc.data() + 4;
  const double* nab = joc.data() + 8;
  EXPECT_DOUBLE_EQ(na[0], 1.0);   // west slot0
  EXPECT_DOUBLE_EQ(na[1], 1.0);   // west slot1
  EXPECT_DOUBLE_EQ(na[2], 1.0);   // east slot0 (POI 2)
  EXPECT_DOUBLE_EQ(na[3], 0.0);
  EXPECT_DOUBLE_EQ(nb[0], 2.0);
  EXPECT_DOUBLE_EQ(nb[1], 0.0);
  EXPECT_DOUBLE_EQ(nab[0], 1.0);  // shared POI 0 in west slot0
  EXPECT_DOUBLE_EQ(nab[1], 0.0);
  EXPECT_DOUBLE_EQ(nab[2], 0.0);
}

TEST(Joc, SymmetricInAB) {
  const FixtureWorld w;
  const geo::UniformGridDivisionView view(w.division);
  const block::CellIndex index(w.dataset, view, w.slots);
  JocOptions options;
  options.log_scale = false;
  std::vector<double> ab(index.joc_dim()), ba(index.joc_dim());
  build_joc(index, 0, 1, ab.data(), options);
  build_joc(index, 1, 0, ba.data(), options);
  // n_a and n_b channels swap; n_ab is identical.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(ab[i], ba[4 + i]);
    EXPECT_DOUBLE_EQ(ab[4 + i], ba[i]);
    EXPECT_DOUBLE_EQ(ab[8 + i], ba[8 + i]);
  }
}

TEST(Joc, LogScaleIsMonotone) {
  const FixtureWorld w;
  const geo::UniformGridDivisionView view(w.division);
  const block::CellIndex index(w.dataset, view, w.slots);
  std::vector<double> raw(index.joc_dim()), logged(index.joc_dim());
  JocOptions opt_raw;
  opt_raw.log_scale = false;
  build_joc(index, 0, 1, raw.data(), opt_raw);
  build_joc(index, 0, 1, logged.data());
  for (std::size_t i = 0; i < raw.size(); ++i)
    EXPECT_NEAR(logged[i], std::log1p(raw[i]), 1e-12);
}

TEST(Joc, MatrixBuilderMatchesSingle) {
  const FixtureWorld w;
  const geo::UniformGridDivisionView view(w.division);
  const block::CellIndex index(w.dataset, view, w.slots);
  const std::vector<data::UserPair> pairs{{0, 1}, {0, 2}};
  const nn::SparseRows m = build_joc_matrix(index, pairs);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), index.joc_dim());
  std::vector<double> single(index.joc_dim()), row(index.joc_dim());
  build_joc(index, 0, 1, single.data());
  m.densify_row(0, row.data());
  for (std::size_t c = 0; c < single.size(); ++c)
    EXPECT_DOUBLE_EQ(row[c], single[c]);
}

/// The dense JOC as the engine built it before the sparse store: zeroed
/// cells, per-entry += of the counts and shared POIs, then log1p over
/// every cell. The oracle for the store's bytes.
std::vector<double> dense_joc_reference(const block::CellIndex& index,
                                        data::UserId a, data::UserId b) {
  const std::size_t cells = index.grid_count() * index.slot_count();
  std::vector<double> out(cells * 3, 0.0);
  const auto ea = index.entries(a);
  const auto eb = index.entries(b);
  for (const auto& e : ea) out[e.cellslot] += e.count;
  for (const auto& e : eb) out[cells + e.cellslot] += e.count;
  std::size_t ia = 0, ib = 0;
  while (ia < ea.size() && ib < eb.size()) {
    const auto ka = std::make_pair(ea[ia].cellslot, ea[ia].poi);
    const auto kb = std::make_pair(eb[ib].cellslot, eb[ib].poi);
    if (ka < kb) {
      ++ia;
    } else if (kb < ka) {
      ++ib;
    } else {
      out[2 * cells + ea[ia].cellslot] += 1.0;
      ++ia;
      ++ib;
    }
  }
  for (double& v : out) v = std::log1p(v);
  return out;
}

TEST(Joc, StoreRowsEqualTheDenseCuboidBytes) {
  // Every pair of a synthetic world: a densified store row (and the dense
  // adapter) is byte-equal to the dense cuboid, its columns ascend
  // strictly and hold no zero, and the charge is the store's bytes.
  data::SyntheticWorldConfig world;
  world.user_count = 40;
  world.poi_count = 90;
  world.weeks = 6;
  world.seed = 5;
  const data::Dataset dataset = data::generate_world(world).dataset;
  const geo::QuadtreeDivision quadtree(dataset.poi_coordinates(), 12);
  const geo::QuadtreeDivisionView view(quadtree);
  const geo::TimeSlotting slots(dataset.window_begin(), dataset.window_end(),
                                3 * geo::kSecondsPerDay);
  const block::CellIndex index(dataset, view, slots);
  std::vector<data::UserPair> pairs;
  for (data::UserId a = 0; a < dataset.user_count(); ++a)
    for (data::UserId b = a + 1; b < dataset.user_count(); ++b)
      pairs.emplace_back(a, b);
  runtime::ExecutionContext ctx;
  JocOptions options;
  options.context = &ctx;
  runtime::MemoryCharge charge;
  const nn::SparseRows store =
      build_joc_matrix(index, pairs, options, &charge);
  ASSERT_EQ(store.rows(), pairs.size());
  EXPECT_EQ(charge.bytes(), store.bytes());
  EXPECT_EQ(ctx.charged(), store.bytes());
  EXPECT_GT(store.nnz(), 0u);
  EXPECT_LT(store.nnz(), pairs.size() * index.joc_dim() / 10);
  const std::size_t row_bytes = index.joc_dim() * sizeof(double);
  std::vector<double> row(index.joc_dim()), adapter(index.joc_dim());
  for (std::size_t r = 0; r < pairs.size(); ++r) {
    const std::vector<double> want =
        dense_joc_reference(index, pairs[r].first, pairs[r].second);
    store.densify_row(r, row.data());
    ASSERT_EQ(0, std::memcmp(row.data(), want.data(), row_bytes)) << r;
    build_joc(index, pairs[r].first, pairs[r].second, adapter.data());
    ASSERT_EQ(0, std::memcmp(adapter.data(), want.data(), row_bytes)) << r;
    EXPECT_EQ(store.row_nnz(r),
              joc_nnz(index, pairs[r].first, pairs[r].second));
    for (std::size_t p = 0; p < store.row_nnz(r); ++p) {
      EXPECT_NE(store.row_values(r)[p], 0.0);
      if (p > 0) {
        EXPECT_LT(store.row_index(r)[p - 1], store.row_index(r)[p]) << r;
      }
    }
  }
}

// ---------- encoder dims ----------

TEST(Presence, EncoderDimsHalve) {
  PresenceModelConfig cfg;
  cfg.feature_dim = 64;
  cfg.max_hidden_layers = 2;
  cfg.max_hidden_width = 10000;
  const auto dims = make_encoder_dims(1000, cfg);
  EXPECT_EQ(dims, (std::vector<std::size_t>{1000, 500, 250, 64}));
}

TEST(Presence, EncoderDimsSkipNarrowLayers) {
  PresenceModelConfig cfg;
  cfg.feature_dim = 64;
  cfg.max_hidden_layers = 3;
  const auto dims = make_encoder_dims(200, cfg);
  // 200/2 = 100 <= 128, so no hidden layer survives.
  EXPECT_EQ(dims, (std::vector<std::size_t>{200, 64}));
}

TEST(Presence, EncoderDimsClampWidth) {
  PresenceModelConfig cfg;
  cfg.feature_dim = 64;
  cfg.max_hidden_width = 320;
  const auto dims = make_encoder_dims(2000, cfg);
  EXPECT_EQ(dims, (std::vector<std::size_t>{2000, 320, 64}));
}

TEST(Presence, EncoderDimsRejectTinyInput) {
  PresenceModelConfig cfg;
  cfg.feature_dim = 64;
  EXPECT_THROW(make_encoder_dims(64, cfg), std::invalid_argument);
}

// ---------- PresenceModel ----------

TEST(Presence, TrainsAndPredictsOnSyntheticJocs) {
  // JOC-like inputs: positives have mass in the shared channel.
  util::Rng rng(7);
  const std::size_t dim = 48;
  nn::Matrix x(120, dim);
  std::vector<int> y(120);
  for (std::size_t i = 0; i < 120; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t c = 0; c < dim; ++c) {
      double v = rng.uniform() < 0.1 ? rng.uniform(0.0, 2.0) : 0.0;
      if (y[i] && c >= 2 * dim / 3) v += rng.uniform(0.5, 1.5);
      x(i, c) = std::log1p(v);
    }
  }
  PresenceModelConfig cfg;
  cfg.feature_dim = 8;
  cfg.epochs = 30;
  PresenceModel model(cfg);
  model.train(x, y);
  EXPECT_TRUE(model.trained());
  const nn::Matrix code = model.encode(x);
  EXPECT_EQ(code.cols(), 8u);
  const auto pred = model.predict(x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) correct += pred[i] == y[i];
  EXPECT_GT(correct, 100u);
}

TEST(Presence, AutoencoderSpanCarriesRowsEpochsAndFlop) {
  // 48 -> 24 -> 8 encoder, 8 -> 32 -> 1 head, every row with exactly 10
  // non-zero inputs: per row and epoch the dense layers below the
  // decoder's output layer cost
  // 16 * (48*24 + 24*8) + 6 * (8*32 + 32*1) - 16 * (48*24) = 4800 FLOPs,
  // the sparse bottom layer 6 * 10 * 24 = 1440 and the output layer
  // 6 * 24 = 144 per reconstructed cell (6 * 48 * 24 = 6912 per row when
  // every column is kept). The cap keeps 40 of the 60 rows (20 per
  // class), in two batches of 20, so the cells of both epochs are
  // 20 * (sampled columns summed over the 4 batches) = 80 * recon_cols.
  util::Rng rng(11);
  nn::Matrix x(60, 48);
  std::vector<int> y(60);
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t set = 0; set < 10;) {
      double& cell = x(r, rng.index(48));
      if (cell == 0.0) {
        cell = 1.0;
        ++set;
      }
    }
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 2);
  PresenceModelConfig cfg;
  cfg.feature_dim = 8;
  cfg.epochs = 2;
  cfg.max_autoencoder_rows = 40;
  cfg.batch_size = 20;
  PresenceModel model(cfg);
  obs::Counter& flops = obs::metrics().counter("nn.ae.flops_total");
  const std::uint64_t flops_before = flops.value();
  obs::tracer().clear();
  obs::tracer().enable();
  model.train(x, y);
  obs::tracer().disable();
  const std::vector<obs::TraceEvent> events = obs::tracer().events();
  obs::tracer().clear();

  // Every cell reconstructed: the dense formula of the unsampled loss.
  EXPECT_DOUBLE_EQ(
      model.autoencoder()->train_flop_per_epoch(40, 400, 40.0 * 48.0),
      (4800.0 + 6912.0 + 1440.0) * 40.0);
  std::map<std::string, double> args;
  for (const obs::TraceEvent& event : events)
    if (event.name == "core.presence.autoencoder")
      for (const auto& [key, value] : event.args) args[key] = value;
  EXPECT_DOUBLE_EQ(args["rows"], 40.0);
  EXPECT_DOUBLE_EQ(args["epochs"], 2.0);
  // A batch of 20 rows holds 200 non-zeros over 48 columns: nearly all of
  // them are covered, and the sample never exceeds the width.
  const double recon_cols = args["recon_cols"];
  EXPECT_GT(recon_cols, 40.0);
  EXPECT_LE(recon_cols, 48.0);
  const double want_flop =
      (4800.0 + 1440.0) * 40.0 * 2.0 + 144.0 * 80.0 * recon_cols;
  EXPECT_DOUBLE_EQ(args["flop"], want_flop);
  EXPECT_EQ(flops.value() - flops_before,
            static_cast<std::uint64_t>(want_flop));
}

TEST(Presence, PredictBeforeTrainThrows) {
  PresenceModel model(PresenceModelConfig{});
  EXPECT_THROW(model.encode(nn::Matrix(1, 10)), std::logic_error);
  EXPECT_THROW(model.predict_proba_encoded(nn::Matrix(1, 10)),
               std::logic_error);
}

// ---------- social proximity features ----------

TEST(Social, SumsEdgeFeaturesByPathLength) {
  // Graph: 0-2-1 (one 2-path) and 0-3-4-1 (one 3-path).
  graph::Graph g(5);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  g.add_edge(0, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 1);
  SocialFeatureConfig cfg;
  cfg.k = 3;
  cfg.feature_dim = 2;
  // Every edge has feature [1, 10].
  EdgeFeatureFn constant = [](data::UserId, data::UserId,
                              std::vector<double>& out) {
    out = {1.0, 10.0};
    return true;
  };
  const auto s = social_proximity_feature(g, 0, 1, cfg, constant);
  ASSERT_EQ(s.size(), 4u);  // (k-1) * d
  // Length-2 slot: one path with 2 edges -> [2, 20].
  EXPECT_DOUBLE_EQ(s[0], 2.0);
  EXPECT_DOUBLE_EQ(s[1], 20.0);
  // Length-3 slot: one path with 3 edges -> [3, 30].
  EXPECT_DOUBLE_EQ(s[2], 3.0);
  EXPECT_DOUBLE_EQ(s[3], 30.0);
}

TEST(Social, MissingEdgeFeaturesContributeNothing) {
  graph::Graph g(3);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  SocialFeatureConfig cfg;
  cfg.k = 3;
  cfg.feature_dim = 1;
  EdgeFeatureFn only02 = [](data::UserId a, data::UserId b,
                            std::vector<double>& out) {
    if (data::make_pair_ordered(a, b) == data::UserPair{0, 2}) {
      out = {5.0};
      return true;
    }
    return false;
  };
  const auto s = social_proximity_feature(g, 0, 1, cfg, only02);
  EXPECT_DOUBLE_EQ(s[0], 5.0);  // only edge (0,2) contributes
  EXPECT_DOUBLE_EQ(s[1], 0.0);
}

TEST(Social, WrongFeatureWidthThrows) {
  graph::Graph g(3);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  SocialFeatureConfig cfg;
  cfg.k = 3;
  cfg.feature_dim = 2;
  EdgeFeatureFn bad = [](data::UserId, data::UserId,
                         std::vector<double>& out) {
    out = {1.0};  // width 1, expected 2
    return true;
  };
  EXPECT_THROW(social_proximity_feature(g, 0, 1, cfg, bad),
               std::logic_error);
}

TEST(Social, EmptySubgraphGivesZeroVector) {
  graph::Graph g(4);  // no path between 0 and 1
  SocialFeatureConfig cfg;
  cfg.k = 3;
  cfg.feature_dim = 3;
  EdgeFeatureFn constant = [](data::UserId, data::UserId,
                              std::vector<double>& out) {
    out = {1.0, 1.0, 1.0};
    return true;
  };
  const auto s = social_proximity_feature(g, 0, 1, cfg, constant);
  for (double v : s) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Social, HeuristicFeatureHasSameWidth) {
  graph::Graph g(5);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  SocialFeatureConfig cfg;
  cfg.k = 3;
  cfg.feature_dim = 16;
  const auto s = heuristic_social_feature(g, 0, 1, cfg);
  EXPECT_EQ(s.size(), 32u);
  EXPECT_DOUBLE_EQ(s[0], 1.0);  // common neighbors
}

// Per-edge presence rows for the differential tests: seeded values with
// mixed magnitudes (so a reordered sum would show in the low bits) and
// roughly one edge in `missing_every` left without a row.
std::map<data::UserPair, std::vector<double>> seeded_edge_rows(
    const graph::Graph& g, std::size_t d, util::Rng& rng,
    std::size_t missing_every) {
  std::map<data::UserPair, std::vector<double>> rows;
  for (const graph::Edge& e : g.edges()) {
    if (missing_every != 0 && rng.index(missing_every) == 0) continue;
    std::vector<double> row(d);
    for (double& v : row)
      v = (rng.uniform() - 0.5) * std::pow(10.0, rng.uniform(-3.0, 3.0));
    rows.emplace(data::UserPair{e.a, e.b}, std::move(row));
  }
  return rows;
}

TEST(Social, TableSinkMatchesCallbackSinkBitForBit) {
  util::Rng rng(4242);
  std::vector<graph::Graph> graphs;
  graphs.push_back(graph::barabasi_albert(150, 3, rng));
  graphs.push_back(graph::watts_strogatz(90, 6, 0.3, rng));
  graphs.push_back(graph::erdos_renyi(60, 0.12, rng));
  {
    // An explicit hub adjacent to half the graph.
    graph::Graph hub = graph::barabasi_albert(80, 2, rng);
    for (graph::NodeId v = 2; v < 80; v += 2) hub.add_edge(1, v);
    graphs.push_back(std::move(hub));
  }
  constexpr std::size_t d = 5;
  // One scratch and one table reused across every graph, k and pair.
  graph::KHopScratch scratch;
  EdgeFeatureTable table;
  std::size_t pairs_checked = 0, capped_pairs = 0, null_edges = 0;
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const graph::Graph& g = graphs[gi];
    const auto rows = seeded_edge_rows(g, d, rng, 7);
    const EdgeFeatureTable::RowFn row_of = [&](data::UserId u,
                                               data::UserId v) {
      const auto it = rows.find(data::make_pair_ordered(u, v));
      if (it == rows.end()) return static_cast<const double*>(nullptr);
      return it->second.data();
    };
    const EdgeFeatureFn edge_feature = [&](data::UserId u, data::UserId v,
                                           std::vector<double>& out) {
      const double* h = row_of(u, v);
      if (h == nullptr) return false;
      out.assign(h, h + d);
      return true;
    };
    table.rebuild(g, d, row_of);
    null_edges += g.edge_count() - rows.size();
    const auto n = static_cast<data::UserId>(g.node_count());
    for (int k = 2; k <= 5; ++k) {
      for (std::size_t cap : {std::size_t{4096}, std::size_t{6}}) {
        SocialFeatureConfig cfg;
        cfg.k = k;
        cfg.feature_dim = d;
        cfg.khop.max_paths_per_length = cap;
        for (int trial = 0; trial < 10; ++trial) {
          // Every third pair starts at the hub-heavy low ids.
          const data::UserId a =
              trial % 3 == 0 ? 1 : static_cast<data::UserId>(rng.index(n));
          const data::UserId b =
              static_cast<data::UserId>((a + 1 + rng.index(n - 1)) % n);
          const std::vector<double> want =
              social_proximity_feature(g, a, b, cfg, edge_feature);
          std::vector<double> got(want.size(), -1.0);
          const graph::KHopStats stats =
              social_proximity_feature(g, a, b, cfg, table, scratch, got);
          ASSERT_EQ(got.size(), want.size());
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                want.size() * sizeof(double)),
                    0)
              << "graph " << gi << " k " << k << " cap " << cap << " pair "
              << a << "-" << b;
          // A fresh scratch gives the same bytes as the reused one.
          graph::KHopScratch fresh;
          std::vector<double> again(want.size());
          social_proximity_feature(g, a, b, cfg, table, fresh, again);
          EXPECT_EQ(std::memcmp(again.data(), want.data(),
                                want.size() * sizeof(double)),
                    0);
          graph::KHopOptions khop = cfg.khop;
          khop.k = k;
          std::size_t paths = 0;
          for (std::size_t c : graph::khop_path_counts(g, a, b, khop))
            paths += c;
          EXPECT_EQ(stats.paths, paths);
          capped_pairs += stats.capped > 0;
          ++pairs_checked;
        }
      }
    }
  }
  EXPECT_EQ(pairs_checked, 4u * 4u * 2u * 10u);
  EXPECT_GT(capped_pairs, 0u);  // the small cap truncated some features
  EXPECT_GT(null_edges, 0u);    // and some edges had no row
}

TEST(Social, TableSinkRejectsMismatchedInputs) {
  graph::Graph g(3);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  SocialFeatureConfig cfg;
  cfg.k = 3;
  cfg.feature_dim = 2;
  const std::vector<double> row{1.0, 2.0};
  EdgeFeatureTable table;
  table.rebuild(g, 2, [&](data::UserId, data::UserId) { return row.data(); });
  graph::KHopScratch scratch;
  std::vector<double> out(4);
  social_proximity_feature(g, 0, 1, cfg, table, scratch, out);
  EXPECT_DOUBLE_EQ(out[0], 2.0);  // two edges of the one 2-path
  EXPECT_DOUBLE_EQ(out[1], 4.0);
  std::vector<double> narrow(3);
  EXPECT_THROW(social_proximity_feature(g, 0, 1, cfg, table, scratch, narrow),
               std::invalid_argument);
  g.add_edge(0, 1);  // the table no longer describes g
  EXPECT_THROW(social_proximity_feature(g, 0, 1, cfg, table, scratch, out),
               std::logic_error);
}

// ---------- pipeline ----------

data::SyntheticWorldConfig pipeline_world_config() {
  data::SyntheticWorldConfig cfg;
  cfg.user_count = 110;
  cfg.poi_count = 280;
  cfg.city_count = 3;
  cfg.weeks = 6;
  cfg.seed = 31;
  return cfg;
}

FriendSeekerConfig fast_seeker_config() {
  FriendSeekerConfig cfg;
  cfg.sigma = 60;
  cfg.presence.feature_dim = 16;
  cfg.presence.epochs = 6;
  cfg.presence.max_autoencoder_rows = 200;
  cfg.max_iterations = 3;
  return cfg;
}

struct PipelineFixture {
  data::SyntheticWorld world = data::generate_world(pipeline_world_config());
  eval::LabeledPairs pairs =
      eval::sample_candidate_pairs(world.dataset, eval::PairSamplingConfig{});
  eval::PairSplit split = eval::split_pairs(pairs, 0.7, 3);
};

TEST(Pipeline, EndToEndRunsAndBeatsChance) {
  PipelineFixture fx;
  FriendSeeker seeker(fast_seeker_config());
  const FriendSeekerResult result =
      seeker.run(fx.world.dataset, fx.split.train_pairs,
                 fx.split.train_labels, fx.split.test_pairs);
  ASSERT_EQ(result.test_predictions.size(), fx.split.test_pairs.size());
  ASSERT_EQ(result.test_scores.size(), fx.split.test_pairs.size());
  EXPECT_GE(result.iterations.size(), 2u);  // phase-1 record + >=1 iteration
  const ml::Prf prf = ml::prf(fx.split.test_labels, result.test_predictions);
  EXPECT_GT(prf.f1, 0.5);  // far above the 0 of random-on-balanced... and
                           // comfortably above all-positive's implied bound
}

TEST(Pipeline, IterationRecordsAreConsistent) {
  PipelineFixture fx;
  FriendSeeker seeker(fast_seeker_config());
  const FriendSeekerResult result =
      seeker.run(fx.world.dataset, fx.split.train_pairs,
                 fx.split.train_labels, fx.split.test_pairs);
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const IterationRecord& rec = result.iterations[i];
    EXPECT_EQ(rec.iteration, static_cast<int>(i));
    EXPECT_EQ(rec.test_predictions.size(), fx.split.test_pairs.size());
    EXPECT_GE(rec.edge_change_ratio, 0.0);
  }
  // Final predictions equal the last iteration's record.
  EXPECT_EQ(result.test_predictions,
            result.iterations.back().test_predictions);
  // The final graph's edge count matches the last record.
  EXPECT_EQ(result.final_graph.edge_count(),
            result.iterations.back().graph_edges);
}

TEST(Pipeline, PhaseOneOnlyAblation) {
  // A 0-iteration cap skips phase 2 outright: the phase-1 graph is the
  // result, which is neither a fallback nor a cap hit before convergence.
  PipelineFixture fx;
  FriendSeekerConfig cfg = fast_seeker_config();
  cfg.max_iterations = 0;
  runtime::ExecutionContext context;
  cfg.context = &context;
  FriendSeeker seeker(cfg);
  const FriendSeekerResult result =
      seeker.run(fx.world.dataset, fx.split.train_pairs,
                 fx.split.train_labels, fx.split.test_pairs);
  EXPECT_EQ(result.iterations.size(), 1u);
  EXPECT_EQ(result.iterations_run, 0);
  EXPECT_FALSE(result.fell_back_to_phase1);
  EXPECT_FALSE(result.degradation.degraded());
}

TEST(Pipeline, HeuristicSocialFeatureAblationRuns) {
  PipelineFixture fx;
  FriendSeekerConfig cfg = fast_seeker_config();
  cfg.use_social_feature = false;
  FriendSeeker seeker(cfg);
  const FriendSeekerResult result =
      seeker.run(fx.world.dataset, fx.split.train_pairs,
                 fx.split.train_labels, fx.split.test_pairs);
  const ml::Prf prf = ml::prf(fx.split.test_labels, result.test_predictions);
  EXPECT_GT(prf.f1, 0.3);
}

TEST(Pipeline, UniformGridAblationRuns) {
  PipelineFixture fx;
  FriendSeekerConfig cfg = fast_seeker_config();
  cfg.uniform_grid = true;
  cfg.uniform_rows = 4;
  cfg.uniform_cols = 4;
  FriendSeeker seeker(cfg);
  const FriendSeekerResult result =
      seeker.run(fx.world.dataset, fx.split.train_pairs,
                 fx.split.train_labels, fx.split.test_pairs);
  const ml::Prf prf = ml::prf(fx.split.test_labels, result.test_predictions);
  EXPECT_GT(prf.f1, 0.3);
}

TEST(Pipeline, DeterministicAcrossRuns) {
  PipelineFixture fx;
  FriendSeeker a(fast_seeker_config());
  FriendSeeker b(fast_seeker_config());
  const auto ra = a.run(fx.world.dataset, fx.split.train_pairs,
                        fx.split.train_labels, fx.split.test_pairs);
  const auto rb = b.run(fx.world.dataset, fx.split.train_pairs,
                        fx.split.train_labels, fx.split.test_pairs);
  EXPECT_EQ(ra.test_predictions, rb.test_predictions);
  EXPECT_EQ(ra.iterations_run, rb.iterations_run);
}

TEST(Pipeline, ValidatesArguments) {
  PipelineFixture fx;
  FriendSeekerConfig bad = fast_seeker_config();
  bad.k = 1;
  EXPECT_THROW(FriendSeeker{bad}, std::invalid_argument);
  // Non-finite tau never reaches the slot-length cast.
  for (const double tau : {0.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    bad = fast_seeker_config();
    bad.tau_days = tau;
    try {
      FriendSeeker{bad};
      ADD_FAILURE() << "tau " << tau << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("tau"), std::string::npos)
          << e.what();
    }
  }

  FriendSeeker seeker(fast_seeker_config());
  EXPECT_THROW(seeker.run(fx.world.dataset, {}, {}, fx.split.test_pairs),
               std::invalid_argument);
  EXPECT_THROW(
      seeker.run(fx.world.dataset, fx.split.train_pairs,
                 std::vector<int>(3, 0), fx.split.test_pairs),
      std::invalid_argument);
}

TEST(Pipeline, LogisticPhase2ClassifierWorks) {
  PipelineFixture fx;
  FriendSeekerConfig cfg = fast_seeker_config();
  cfg.phase2_classifier = FriendSeekerConfig::Phase2Classifier::kLogistic;
  FriendSeeker seeker(cfg);
  const FriendSeekerResult result =
      seeker.run(fx.world.dataset, fx.split.train_pairs,
                 fx.split.train_labels, fx.split.test_pairs);
  const ml::Prf prf = ml::prf(fx.split.test_labels, result.test_predictions);
  EXPECT_GT(prf.f1, 0.4);  // classifier-agnostic: still far above chance
}

class PipelineKSweep : public ::testing::TestWithParam<int> {};

TEST_P(PipelineKSweep, RunsForAllK) {
  PipelineFixture fx;
  FriendSeekerConfig cfg = fast_seeker_config();
  cfg.k = GetParam();
  cfg.max_iterations = 2;
  FriendSeeker seeker(cfg);
  const FriendSeekerResult result =
      seeker.run(fx.world.dataset, fx.split.train_pairs,
                 fx.split.train_labels, fx.split.test_pairs);
  const ml::Prf prf = ml::prf(fx.split.test_labels, result.test_predictions);
  EXPECT_GT(prf.f1, 0.3) << "k=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(KValues, PipelineKSweep, ::testing::Values(2, 3, 4));

}  // namespace
}  // namespace fs::core
