// Component micro-benchmarks (google-benchmark): throughput of the pieces
// on the attack's hot path — quadtree construction and lookup, JOC
// construction, k-hop subgraph extraction, autoencoder training epochs,
// SVM fit/decision, and skip-gram training.
#include <benchmark/benchmark.h>

#include "core/joc.h"
#include "data/synthetic.h"
#include "embed/skipgram.h"
#include "geo/quadtree.h"
#include "geo/spatial_division.h"
#include "graph/generators.h"
#include "graph/khop.h"
#include "ml/svm.h"
#include "nn/supervised_autoencoder.h"

namespace {

using namespace fs;

const data::SyntheticWorld& shared_world() {
  static const data::SyntheticWorld world = [] {
    data::SyntheticWorldConfig cfg;
    cfg.user_count = 300;
    cfg.poi_count = 900;
    cfg.weeks = 8;
    cfg.seed = 404;
    return data::generate_world(cfg);
  }();
  return world;
}

void BM_QuadtreeBuild(benchmark::State& state) {
  const auto coords = shared_world().dataset.poi_coordinates();
  const auto sigma = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    geo::QuadtreeDivision division(coords, sigma);
    benchmark::DoNotOptimize(division.cell_count());
  }
}
BENCHMARK(BM_QuadtreeBuild)->Arg(60)->Arg(120)->Arg(300);

void BM_QuadtreeLookup(benchmark::State& state) {
  const auto coords = shared_world().dataset.poi_coordinates();
  const geo::QuadtreeDivision division(coords, 120);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(division.cell_of(coords[i % coords.size()]));
    ++i;
  }
}
BENCHMARK(BM_QuadtreeLookup);

void BM_CellIndexBuild(benchmark::State& state) {
  const auto& world = shared_world();
  const geo::QuadtreeDivision division(world.dataset.poi_coordinates(), 120);
  const geo::QuadtreeDivisionView view(division);
  const geo::TimeSlotting slots(world.dataset.window_begin(),
                                world.dataset.window_end(),
                                7 * geo::kSecondsPerDay);
  for (auto _ : state) {
    block::CellIndex index(world.dataset, view, slots);
    benchmark::DoNotOptimize(index.signature());
  }
}
BENCHMARK(BM_CellIndexBuild);

void BM_JocBuild(benchmark::State& state) {
  const auto& world = shared_world();
  const geo::QuadtreeDivision division(world.dataset.poi_coordinates(), 120);
  const geo::QuadtreeDivisionView view(division);
  const geo::TimeSlotting slots(world.dataset.window_begin(),
                                world.dataset.window_end(),
                                7 * geo::kSecondsPerDay);
  const block::CellIndex index(world.dataset, view, slots);
  std::vector<double> joc(index.joc_dim());
  data::UserId a = 0;
  for (auto _ : state) {
    core::build_joc(index, a, (a + 7) % 300, joc.data());
    benchmark::DoNotOptimize(joc.data());
    a = (a + 1) % 300;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JocBuild);

void BM_KHopExtraction(benchmark::State& state) {
  util::Rng rng(11);
  const graph::Graph g = graph::watts_strogatz(500, 8, 0.2, rng);
  graph::KHopOptions options;
  options.k = static_cast<int>(state.range(0));
  graph::NodeId a = 0;
  for (auto _ : state) {
    const auto sub = graph::extract_khop_subgraph(
        g, a, (a + 250) % 500, options);
    benchmark::DoNotOptimize(sub.path_count());
    a = (a + 1) % 500;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KHopExtraction)->Arg(2)->Arg(3)->Arg(4);

void BM_AutoencoderEpoch(benchmark::State& state) {
  util::Rng rng(13);
  const std::size_t input_dim = 360;
  nn::Matrix x(256, input_dim);
  std::vector<int> y(256);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = rng.uniform() < 0.1 ? rng.uniform() : 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 2);
  for (auto _ : state) {
    nn::AutoencoderConfig cfg;
    cfg.encoder_dims = {input_dim, 180, 48};
    cfg.epochs = 1;
    nn::SupervisedAutoencoder ae(cfg);
    ae.train(x, y);
    benchmark::DoNotOptimize(ae.code_dim());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_AutoencoderEpoch);

void BM_SvmFit(benchmark::State& state) {
  util::Rng rng(17);
  const auto n = static_cast<std::size_t>(state.range(0));
  nn::Matrix x(n, 32);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t c = 0; c < 32; ++c)
      x(i, c) = rng.normal(y[i] ? 1.0 : -1.0, 1.0);
  }
  for (auto _ : state) {
    ml::SvmClassifier svm;
    svm.fit(x, y);
    benchmark::DoNotOptimize(svm.support_vector_count());
  }
}
BENCHMARK(BM_SvmFit)->Arg(200)->Arg(500)->Arg(1000);

void BM_SvmDecision(benchmark::State& state) {
  util::Rng rng(19);
  nn::Matrix x(500, 32);
  std::vector<int> y(500);
  for (std::size_t i = 0; i < 500; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t c = 0; c < 32; ++c)
      x(i, c) = rng.normal(y[i] ? 1.0 : -1.0, 1.0);
  }
  ml::SvmClassifier svm;
  svm.fit(x, y);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(svm.decision(x.row(i % 500)));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SvmDecision);

void BM_SkipGramTraining(benchmark::State& state) {
  util::Rng rng(23);
  const graph::Graph social = graph::watts_strogatz(300, 6, 0.2, rng);
  embed::WeightedGraph g(300);
  for (const graph::Edge& e : social.edges()) g.add_weight(e.a, e.b, 1.0);
  embed::WalkConfig wc;
  wc.walks_per_node = 4;
  wc.walk_length = 12;
  const auto corpus = embed::generate_walks(g, wc, rng);
  for (auto _ : state) {
    embed::SkipGramConfig sg;
    sg.dim = 32;
    sg.epochs = 1;
    const nn::Matrix emb = embed::train_skipgram(corpus, 300, sg);
    benchmark::DoNotOptimize(emb.rows());
  }
}
BENCHMARK(BM_SkipGramTraining);

}  // namespace

BENCHMARK_MAIN();
