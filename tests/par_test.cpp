// fs::par — the deterministic parallel runtime. These tests pin the
// determinism contract (decomposition and results independent of the
// thread count), governance integration (cancellation, deadline, memory
// budget at chunk granularity), exception selection, and the pipeline-level
// guarantee that --threads N reproduces --threads 1 byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/synthetic.h"
#include "eval/pairs.h"
#include "graph/metrics.h"
#include "obs/trace.h"
#include "par/par.h"
#include "par/pool.h"
#include "util/error.h"
#include "util/runtime.h"

namespace fs {
namespace {

/// Every test leaves the process back at a single-thread pool so suites
/// running after this one see the default configuration.
class ParTest : public ::testing::Test {
 protected:
  void TearDown() override { par::set_threads(1); }
};

TEST_F(ParTest, PoolRunsEveryParticipant) {
  par::ThreadPool pool(4);
  ASSERT_EQ(pool.threads(), 4u);
  std::vector<std::atomic<int>> hits(4);
  for (auto& h : hits) h.store(0);
  pool.run([&](std::size_t slot) { hits[slot].fetch_add(1); });
  for (std::size_t slot = 0; slot < 4; ++slot)
    EXPECT_EQ(hits[slot].load(), 1) << "slot " << slot;
}

TEST_F(ParTest, SingleThreadPoolSpawnsNoWorkers) {
  par::ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  bool ran = false;
  pool.run([&](std::size_t slot) {
    EXPECT_EQ(slot, 0u);
    ran = true;
  });
  EXPECT_TRUE(ran);
}

TEST_F(ParTest, SetThreadsReconfiguresTheProcessPool) {
  par::set_threads(3);
  EXPECT_EQ(par::threads(), 3u);
  EXPECT_EQ(par::pool().threads(), 3u);
  par::set_threads(1);
  EXPECT_EQ(par::threads(), 1u);
}

// Neither test below starts a pool: set_threads is lazy, default_threads
// only reads the environment.
TEST_F(ParTest, SetThreadsRejectsCountsAboveTheCeiling) {
  par::set_threads(2);
  EXPECT_THROW(par::set_threads(par::kMaxThreads + 1), std::invalid_argument);
  EXPECT_EQ(par::threads(), 2u);  // the configured count is unchanged
}

TEST_F(ParTest, DefaultThreadsCapsTheEnvironmentAtTheCeiling) {
  const char* saved = std::getenv("FS_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  setenv("FS_THREADS", "100000", 1);
  const std::size_t threads = par::default_threads();
  if (saved != nullptr)
    setenv("FS_THREADS", restore.c_str(), 1);
  else
    unsetenv("FS_THREADS");
  EXPECT_GE(threads, 1u);
  EXPECT_LE(threads, par::kMaxThreads);
}

TEST_F(ParTest, ParallelForComputesEveryIndexExactlyOnce) {
  par::set_threads(4);
  const std::size_t n = 10'000;
  std::vector<std::size_t> out(n, 0);
  par::ParallelOptions options;
  options.grain = 64;
  par::parallel_for(n, options,
                    [&](std::size_t i) { out[i] += i * i + 1; });
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(out[i], i * i + 1) << "index " << i;
}

TEST_F(ParTest, DecompositionIsIndependentOfThreadCount) {
  const std::size_t n = 1003;
  const std::size_t grain = 17;
  const auto chunks_at = [&](std::size_t threads) {
    par::set_threads(threads);
    std::set<std::pair<std::size_t, std::size_t>> ranges;
    std::mutex mu;
    par::ParallelOptions options;
    options.grain = grain;
    par::parallel_for_chunks(n, options, [&](const par::ChunkRange& chunk) {
      std::lock_guard<std::mutex> lock(mu);
      ranges.emplace(chunk.begin, chunk.end);
    });
    return ranges;
  };
  const auto sequential = chunks_at(1);
  const auto pooled = chunks_at(4);
  EXPECT_EQ(sequential.size(), par::chunk_count(n, grain));
  EXPECT_EQ(sequential, pooled);
}

TEST_F(ParTest, TracedRegionRecordsOneEventNotOnePerChunk) {
  par::set_threads(4);
  obs::Tracer& tracer = obs::tracer();
  tracer.clear();
  tracer.enable();
  std::atomic<std::size_t> ran{0};
  par::ParallelOptions options;
  options.grain = 1;
  par::parallel_for_chunks(1000, options, [&](const par::ChunkRange&) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  tracer.disable();
  const std::vector<obs::TraceEvent> events = tracer.events();
  tracer.clear();
  EXPECT_EQ(ran.load(), 1000u);
  ASSERT_LE(events.size(), 2u);
  const auto region = std::find_if(
      events.begin(), events.end(),
      [](const obs::TraceEvent& e) { return e.name == "par.region"; });
  ASSERT_NE(region, events.end());
  double chunks = -1.0, sum_ms = -1.0, max_ms = -1.0;
  for (const auto& [key, value] : region->args) {
    if (key == "chunks") chunks = value;
    if (key == "chunk_ms_sum") sum_ms = value;
    if (key == "chunk_ms_max") max_ms = value;
  }
  EXPECT_EQ(chunks, 1000.0);
  EXPECT_GE(max_ms, 0.0);
  EXPECT_GE(sum_ms, max_ms);
}

TEST_F(ParTest, FirstErrorByChunkIndexWins) {
  par::set_threads(4);
  par::ParallelOptions options;
  options.grain = 10;
  // Two failing chunks; the one with the LOWER chunk index must be the one
  // that surfaces, regardless of scheduling.
  try {
    par::parallel_for_chunks(1000, options,
                             [&](const par::ChunkRange& chunk) {
                               if (chunk.index == 7 || chunk.index == 31)
                                 throw std::runtime_error(
                                     "chunk " + std::to_string(chunk.index));
                             });
    FAIL() << "expected the chunk exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 7");
  }
}

TEST_F(ParTest, CancellationAbortsTheRegionWithCancelledError) {
  par::set_threads(4);
  runtime::CancellationToken token;
  runtime::ExecutionContext ctx;
  ctx.set_cancellation(&token);
  par::ParallelOptions options;
  options.context = &ctx;
  options.grain = 1;
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(
      par::parallel_for(10'000, options,
                        [&](std::size_t) {
                          // Trip the token from inside the region: later
                          // chunks must hit the probe and abort.
                          if (executed.fetch_add(1) == 3) token.request();
                        }),
      CancelledError);
  // The abort is cooperative, not instant, but far fewer than all chunks
  // may run after the request.
  EXPECT_LT(executed.load(), 10'000u);
}

TEST_F(ParTest, ExpiredDeadlineSurfacesAsBudgetError) {
  par::set_threads(4);
  runtime::ExecutionContext ctx;
  ctx.set_deadline_seconds(1e-9);
  par::ParallelOptions options;
  options.context = &ctx;
  options.grain = 1;
  EXPECT_THROW(par::parallel_for(1000, options, [](std::size_t) {}),
               BudgetError);
}

TEST_F(ParTest, SoftDeadlineRegionRunsToCompletion) {
  // hard_deadline = false: an expired deadline must not abort the region
  // (phase-1 G0 seeding has nothing to degrade to), but cancellation must.
  par::set_threads(4);
  runtime::ExecutionContext ctx;
  ctx.set_deadline_seconds(1e-9);
  par::ParallelOptions options;
  options.context = &ctx;
  options.grain = 1;
  options.hard_deadline = false;
  std::atomic<std::size_t> executed{0};
  par::parallel_for(1000, options,
                    [&](std::size_t) { executed.fetch_add(1); });
  EXPECT_EQ(executed.load(), 1000u);

  runtime::CancellationToken token;
  token.request();
  ctx.set_cancellation(&token);
  EXPECT_THROW(par::parallel_for(1000, options, [](std::size_t) {}),
               CancelledError);
}

TEST_F(ParTest, WorkerScratchIsChargedAgainstTheMemoryBudget) {
  par::set_threads(4);
  runtime::ExecutionContext ctx;
  ctx.set_memory_limit(1024);
  par::ParallelOptions options;
  options.context = &ctx;
  options.grain = 1;
  options.scratch_bytes_per_worker = 4096;  // 4 workers * 4096 > 1024
  EXPECT_THROW(par::parallel_for(128, options, [](std::size_t) {}),
               BudgetError);
  EXPECT_EQ(ctx.charged(), 0u);  // the failed charge left no residue
}

TEST_F(ParTest, OrderedReduceFixesCombinationOrder) {
  // String concatenation is non-commutative and non-associative-friendly:
  // any reordering of partials changes the result, so equality with the
  // sequential reference proves the combine order is fixed.
  const std::size_t n = 257;
  par::ParallelOptions options;
  options.grain = 8;
  const auto map = [](const par::ChunkRange& chunk) {
    std::string part;
    for (std::size_t i = chunk.begin; i < chunk.end; ++i)
      part += std::to_string(i) + ",";
    return part;
  };
  const auto combine = [](std::string acc, std::string part) {
    return acc + part;
  };
  std::string reference;
  for (std::size_t i = 0; i < n; ++i) reference += std::to_string(i) + ",";

  par::set_threads(1);
  const std::string seq =
      par::ordered_reduce(n, std::string(), options, map, combine);
  par::set_threads(4);
  const std::string pooled =
      par::ordered_reduce(n, std::string(), options, map, combine);
  EXPECT_EQ(seq, reference);
  EXPECT_EQ(pooled, reference);
}

TEST_F(ParTest, ChunkRngIsAFunctionOfSeedAndChunkAlone) {
  util::Rng a = par::chunk_rng(42, 7);
  util::Rng b = par::chunk_rng(42, 7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
  util::Rng other_chunk = par::chunk_rng(42, 8);
  util::Rng c = par::chunk_rng(42, 7);
  EXPECT_NE(c(), other_chunk());
}

TEST_F(ParTest, NestedParallelForRunsInlineWithoutDeadlock) {
  par::set_threads(4);
  const std::size_t outer = 64, inner = 64;
  std::vector<std::size_t> out(outer * inner, 0);
  par::ParallelOptions options;
  options.grain = 4;
  par::parallel_for(outer, options, [&](std::size_t i) {
    par::ParallelOptions inner_options;
    inner_options.grain = 4;
    par::parallel_for(inner, inner_options, [&](std::size_t j) {
      out[i * inner + j] = i + j;
    });
  });
  for (std::size_t i = 0; i < outer; ++i)
    for (std::size_t j = 0; j < inner; ++j)
      ASSERT_EQ(out[i * inner + j], i + j);
}

TEST_F(ParTest, GrainForTargetsConstantChunkCost) {
  EXPECT_EQ(par::grain_for(1u << 15), 1u);
  EXPECT_EQ(par::grain_for(1), std::size_t{1} << 15);
  EXPECT_EQ(par::grain_for(0), std::size_t{1} << 15);  // clamped, no div-0
  EXPECT_GE(par::grain_for(std::size_t{1} << 40), 1u);
}

// ---- Pipeline-level byte-identity across thread counts. ----------------

struct Experiment {
  data::Dataset dataset;
  eval::PairSplit split;
  core::FriendSeekerConfig config;
};

Experiment make_experiment() {
  data::SyntheticWorldConfig world_cfg;
  world_cfg.user_count = 90;
  world_cfg.poi_count = 240;
  world_cfg.city_count = 3;
  world_cfg.weeks = 4;
  world_cfg.seed = 9;
  const auto world = data::generate_world(world_cfg);
  const eval::LabeledPairs pairs =
      eval::sample_candidate_pairs(world.dataset);
  core::FriendSeekerConfig cfg;
  cfg.sigma = 50;
  cfg.presence.feature_dim = 12;
  cfg.presence.epochs = 3;
  cfg.presence.max_autoencoder_rows = 120;
  cfg.max_iterations = 3;
  cfg.convergence_threshold = 0.0;  // run all iterations in every variant
  return {world.dataset, eval::split_pairs(pairs, 0.7, 5), cfg};
}

bool bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST_F(ParTest, PipelineIsByteIdenticalAcrossThreadCounts) {
  const Experiment exp = make_experiment();
  const auto run_at = [&](std::size_t threads) {
    par::set_threads(threads);
    core::FriendSeeker seeker(exp.config);
    return seeker.run(exp.dataset, exp.split.train_pairs,
                      exp.split.train_labels, exp.split.test_pairs);
  };
  const core::FriendSeekerResult single = run_at(1);
  const core::FriendSeekerResult pooled = run_at(4);
  ASSERT_EQ(single.iterations_run, exp.config.max_iterations);
  EXPECT_EQ(pooled.test_predictions, single.test_predictions);
  EXPECT_TRUE(bytes_equal(pooled.test_scores, single.test_scores));
  EXPECT_EQ(pooled.final_graph.edge_count(),
            single.final_graph.edge_count());
  EXPECT_DOUBLE_EQ(
      graph::edge_change_ratio(pooled.final_graph, single.final_graph), 0.0);
  // Per-iteration trajectories match too, not just the end state.
  ASSERT_EQ(pooled.iterations.size(), single.iterations.size());
  for (std::size_t i = 0; i < single.iterations.size(); ++i) {
    EXPECT_EQ(pooled.iterations[i].graph_edges,
              single.iterations[i].graph_edges);
    EXPECT_EQ(pooled.iterations[i].test_predictions,
              single.iterations[i].test_predictions);
  }
}

}  // namespace
}  // namespace fs
