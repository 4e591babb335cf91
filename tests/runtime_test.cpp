// Unit tests for the execution-governance layer: cancellation tokens,
// deadlines, memory budgets, declarative retries, degradation reporting,
// and the governance hooks threaded through the loader, JOC builder,
// trainers, and pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>

#include "core/joc.h"
#include "core/pipeline.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "eval/pairs.h"
#include "geo/quadtree.h"
#include "ml/svm.h"
#include "nn/supervised_autoencoder.h"
#include "util/failpoint.h"
#include "util/runtime.h"

namespace fs {
namespace {

namespace fp = util::failpoint;

class RuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::clear(); }
  void TearDown() override { fp::clear(); }
};

// ---------- cancellation ----------

TEST_F(RuntimeTest, TokenRequestIsVisibleThroughContext) {
  runtime::CancellationToken token;
  runtime::ExecutionContext ctx;
  ctx.set_cancellation(&token);
  EXPECT_FALSE(ctx.cancelled());
  EXPECT_NO_THROW(ctx.checkpoint("test"));
  token.request();
  EXPECT_TRUE(ctx.cancelled());
  EXPECT_THROW(ctx.checkpoint("test"), CancelledError);
  EXPECT_THROW(ctx.throw_if_cancelled("test"), CancelledError);
  token.reset();
  EXPECT_FALSE(ctx.cancelled());
}

TEST_F(RuntimeTest, DefaultContextIsUnlimited) {
  runtime::ExecutionContext ctx;
  EXPECT_FALSE(ctx.cancelled());
  EXPECT_FALSE(ctx.deadline_expired());
  EXPECT_EQ(ctx.memory_limit(), 0u);
  EXPECT_NO_THROW(ctx.checkpoint("test"));
  EXPECT_NO_THROW(ctx.charge(std::size_t(1) << 40, "huge"));
}

// ---------- deadlines ----------

TEST_F(RuntimeTest, DeadlineExpiryAndRemaining) {
  EXPECT_FALSE(runtime::Deadline::unlimited().expired());
  EXPECT_TRUE(std::isinf(runtime::Deadline::unlimited().remaining_seconds()));
  const runtime::Deadline past = runtime::Deadline::after_seconds(0.0);
  EXPECT_TRUE(past.expired());
  EXPECT_DOUBLE_EQ(past.remaining_seconds(), 0.0);
  const runtime::Deadline future = runtime::Deadline::after_seconds(3600.0);
  EXPECT_FALSE(future.expired());
  EXPECT_GT(future.remaining_seconds(), 3500.0);
}

TEST_F(RuntimeTest, ExpiredDeadlineMakesCheckpointThrowBudgetError) {
  runtime::ExecutionContext ctx;
  ctx.set_deadline_seconds(0.0);
  EXPECT_TRUE(ctx.deadline_expired());
  EXPECT_THROW(ctx.checkpoint("test"), BudgetError);
}

TEST_F(RuntimeTest, PhaseScopeTightensAndRestoresDeadline) {
  runtime::ExecutionContext ctx;
  ctx.set_deadline_seconds(3600.0);
  {
    runtime::PhaseScope scope(&ctx, 0.0001);
    EXPECT_LT(ctx.remaining_seconds(), 1.0);
  }
  EXPECT_GT(ctx.remaining_seconds(), 3000.0);
  {
    // A phase budget looser than the outer deadline leaves it unchanged.
    runtime::PhaseScope scope(&ctx, 7200.0);
    EXPECT_LT(ctx.remaining_seconds(), 3601.0);
  }
  // Null context and non-positive budgets are no-ops.
  runtime::PhaseScope null_scope(nullptr, 1.0);
  runtime::PhaseScope zero_scope(&ctx, 0.0);
  EXPECT_GT(ctx.remaining_seconds(), 3000.0);
}

// ---------- memory budget ----------

TEST_F(RuntimeTest, ChargeReleaseAndPeakAccounting) {
  runtime::ExecutionContext ctx;
  ctx.set_memory_limit(1000);
  ctx.charge(600, "a");
  EXPECT_EQ(ctx.charged(), 600u);
  EXPECT_THROW(ctx.charge(500, "b"), BudgetError);
  EXPECT_EQ(ctx.charged(), 600u);  // failed charge leaves no residue
  ctx.charge(300, "c");
  EXPECT_EQ(ctx.peak_charged(), 900u);
  ctx.release(600);
  EXPECT_EQ(ctx.charged(), 300u);
  EXPECT_EQ(ctx.peak_charged(), 900u);  // peak is sticky
  ctx.release(10000);                   // over-release clamps at zero
  EXPECT_EQ(ctx.charged(), 0u);
}

TEST_F(RuntimeTest, MemoryChargeIsRaii) {
  runtime::ExecutionContext ctx;
  {
    runtime::MemoryCharge charge(&ctx, 128, "scoped");
    EXPECT_EQ(ctx.charged(), 128u);
    runtime::MemoryCharge moved(std::move(charge));
    EXPECT_EQ(ctx.charged(), 128u);  // moved, not doubled
  }
  EXPECT_EQ(ctx.charged(), 0u);
  EXPECT_EQ(ctx.peak_charged(), 128u);
  // Null context: free.
  runtime::MemoryCharge free_charge(nullptr, 1 << 30, "free");
  EXPECT_EQ(ctx.charged(), 0u);
}

// ---------- retries ----------

TEST_F(RuntimeTest, RetrierHonoursAttemptBudget) {
  runtime::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_ms = 0.0;  // no sleeping in tests
  runtime::Retrier retrier(policy);
  EXPECT_TRUE(retrier.retry());   // attempt 2 allowed
  EXPECT_TRUE(retrier.retry());   // attempt 3 allowed
  EXPECT_FALSE(retrier.retry());  // budget exhausted
  EXPECT_EQ(retrier.failures(), 3);
}

TEST_F(RuntimeTest, RetrierBackoffIsExponentialWithBoundedJitter) {
  runtime::RetryPolicy policy;
  policy.backoff_ms = 8.0;
  policy.multiplier = 2.0;
  policy.jitter = 0.25;
  runtime::Retrier a(policy);
  runtime::Retrier b(policy);
  for (int failures = 1; failures <= 4; ++failures) {
    const double nominal = 8.0 * std::pow(2.0, failures - 1);
    const double delay = a.delay_ms_for(failures);
    EXPECT_GE(delay, nominal * 0.75);
    EXPECT_LE(delay, nominal * 1.25);
    // Same policy (and seed) -> the same jitter stream: deterministic.
    EXPECT_DOUBLE_EQ(delay, b.delay_ms_for(failures));
  }
}

// ---------- degradation reporting ----------

TEST_F(RuntimeTest, DegradationReportFormatsAndClassifies) {
  runtime::DegradationReport report;
  EXPECT_FALSE(report.degraded());
  EXPECT_FALSE(report.cancelled());
  report.add("phase2.refine", "deadline", "budget exhausted", 2, 6);
  report.add("phase2.refine", "cancelled", "SIGINT", 3, 6);
  EXPECT_TRUE(report.degraded());
  EXPECT_TRUE(report.cancelled());
  const std::string text = report.to_string();
  EXPECT_NE(text.find("phase2.refine: deadline (2/6)"), std::string::npos);
  EXPECT_NE(text.find("budget exhausted"), std::string::npos);
  EXPECT_NE(text.find("cancelled (3/6)"), std::string::npos);
}

// ---------- compiled-in failpoint registry ----------

TEST_F(RuntimeTest, KnownFailpointsAreSortedAndDocumented) {
  const auto& known = fp::known_failpoints();
  ASSERT_GE(known.size(), 7u);
  for (std::size_t i = 1; i < known.size(); ++i)
    EXPECT_LT(std::strcmp(known[i - 1].name, known[i].name), 0)
        << "registry must stay sorted by name";
  bool has_abort = false;
  for (const auto& entry : known) {
    EXPECT_GT(std::strlen(entry.description), 0u) << entry.name;
    if (std::string(entry.name) == "pipeline.iteration.abort")
      has_abort = true;
  }
  EXPECT_TRUE(has_abort);
}

// ---------- governance hooks in the heavy loops ----------

struct TinyExperiment {
  data::Dataset dataset;
  eval::PairSplit split;
  core::FriendSeekerConfig config;
};

TinyExperiment make_tiny_experiment() {
  data::SyntheticWorldConfig world_cfg;
  world_cfg.user_count = 90;
  world_cfg.poi_count = 240;
  world_cfg.city_count = 3;
  world_cfg.weeks = 4;
  world_cfg.seed = 9;
  const auto world = data::generate_world(world_cfg);
  const eval::LabeledPairs pairs = eval::sample_candidate_pairs(world.dataset);
  core::FriendSeekerConfig cfg;
  cfg.sigma = 50;
  cfg.presence.feature_dim = 12;
  cfg.presence.epochs = 3;
  cfg.presence.max_autoencoder_rows = 120;
  cfg.max_iterations = 2;
  return {world.dataset, eval::split_pairs(pairs, 0.7, 5), cfg};
}

TEST_F(RuntimeTest, JocBuildAbortsOnCancellation) {
  const TinyExperiment exp = make_tiny_experiment();
  const geo::QuadtreeDivision division(exp.dataset.poi_coordinates(), 50);
  const geo::QuadtreeDivisionView view(division);
  const geo::TimeSlotting slots(exp.dataset.window_begin(),
                                exp.dataset.window_end(),
                                7 * geo::kSecondsPerDay);
  const block::CellIndex index(exp.dataset, view, slots);

  runtime::CancellationToken token;
  token.request();
  runtime::ExecutionContext ctx;
  ctx.set_cancellation(&token);
  core::JocOptions options;
  options.context = &ctx;
  EXPECT_THROW(core::build_joc_matrix(index, exp.split.train_pairs, options),
               CancelledError);

  token.reset();
  ctx.set_deadline_seconds(0.0);
  EXPECT_THROW(core::build_joc_matrix(index, exp.split.train_pairs, options),
               BudgetError);
}

TEST_F(RuntimeTest, LoaderRetriesTransientOpenFailure) {
  const TinyExperiment exp = make_tiny_experiment();
  const std::string dir = testing::TempDir() + "/fs_runtime_loader";
  std::filesystem::create_directories(dir);
  data::save_checkins_snap(exp.dataset, dir + "/checkins.txt",
                           dir + "/edges.txt");

  fp::activate("data.load.open", fp::Action::kError, /*limit=*/1);
  util::Diagnostics diagnostics;
  data::LoadOptions options;
  options.diagnostics = &diagnostics;
  EXPECT_NO_THROW(data::load_checkins_snap(dir + "/checkins.txt",
                                           dir + "/edges.txt", options));
  EXPECT_GE(diagnostics.entries().size(), 1u);  // the retried open
}

TEST_F(RuntimeTest, LoaderAbortsOnCancellation) {
  // The loader only checks governance every 4096 lines, so this test needs
  // a trace longer than one stride.
  data::SyntheticWorldConfig world_cfg;
  world_cfg.user_count = 220;
  world_cfg.poi_count = 500;
  world_cfg.city_count = 3;
  world_cfg.weeks = 16;
  world_cfg.seed = 9;
  const auto world = data::generate_world(world_cfg);
  const std::string dir = testing::TempDir() + "/fs_runtime_loader_cancel";
  std::filesystem::create_directories(dir);
  data::save_checkins_snap(world.dataset, dir + "/checkins.txt",
                           dir + "/edges.txt");
  ASSERT_GT(world.dataset.checkin_count(), 4096u)
      << "world too small to reach the loader's governance stride";

  runtime::CancellationToken token;
  token.request();
  runtime::ExecutionContext ctx;
  ctx.set_cancellation(&token);
  data::LoadOptions options;
  options.context = &ctx;
  EXPECT_THROW(data::load_checkins_snap(dir + "/checkins.txt",
                                        dir + "/edges.txt", options),
               CancelledError);
}

TEST_F(RuntimeTest, AutoencoderTruncatesOnExpiredDeadline) {
  util::Rng rng(19);
  nn::Matrix x(32, 10);
  std::vector<int> y(32);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 2);

  runtime::ExecutionContext ctx;
  ctx.set_deadline_seconds(0.0);
  util::Diagnostics diagnostics;
  nn::AutoencoderConfig cfg;
  cfg.encoder_dims = {10, 6, 3};
  cfg.epochs = 4;
  cfg.seed = 11;
  cfg.context = &ctx;
  cfg.diagnostics = &diagnostics;
  nn::SupervisedAutoencoder ae(cfg);
  // Truncation, not failure: the (untrained-epochs) model is still usable.
  EXPECT_NO_THROW(ae.train(x, y));
  EXPECT_GE(diagnostics.entries().size(), 1u);
  for (double p : ae.predict_proba(x)) EXPECT_TRUE(std::isfinite(p));
}

TEST_F(RuntimeTest, SvmChargesKernelAgainstMemoryBudget) {
  util::Rng rng(23);
  nn::Matrix x(64, 4);
  std::vector<int> y(64);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 2);

  runtime::ExecutionContext ctx;
  ctx.set_memory_limit(64 * 64 * sizeof(double) / 2);  // half the kernel
  ml::SvmConfig cfg;
  cfg.context = &ctx;
  ml::SvmClassifier svm(cfg);
  EXPECT_THROW(svm.fit(x, y), BudgetError);
  EXPECT_EQ(ctx.charged(), 0u);  // the failed charge left no residue
}

TEST_F(RuntimeTest, SvmFitUnderExpiredDeadlineStillReturnsAModel) {
  util::Rng rng(29);
  nn::Matrix x(64, 4);
  std::vector<int> y(64);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 2);

  runtime::ExecutionContext ctx;
  ctx.set_deadline_seconds(0.0);  // expired before the first solver step
  ml::SvmConfig cfg;
  cfg.context = &ctx;
  ml::SvmClassifier svm(cfg);
  ASSERT_NO_THROW(svm.fit(x, y));
  EXPECT_TRUE(svm.trained());
  ml::SvmScratch scratch;
  std::vector<double> decisions(x.rows());
  svm.decide(x.data(), x.rows(), decisions.data(), scratch);
  for (const double d : decisions) EXPECT_TRUE(std::isfinite(d));
}

TEST_F(RuntimeTest, SvmFitThrowsWhenCancelled) {
  util::Rng rng(31);
  nn::Matrix x(64, 4);
  std::vector<int> y(64);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 2);

  runtime::CancellationToken token;
  token.request();
  runtime::ExecutionContext ctx;
  ctx.set_cancellation(&token);
  ml::SvmConfig cfg;
  cfg.context = &ctx;
  ml::SvmClassifier svm(cfg);
  EXPECT_THROW(svm.fit(x, y), CancelledError);
  EXPECT_EQ(ctx.charged(), 0u);
}

TEST_F(RuntimeTest, PipelineDegradesGracefullyOnPhase2Deadline) {
  TinyExperiment exp = make_tiny_experiment();
  runtime::ExecutionContext ctx;
  exp.config.context = &ctx;
  exp.config.phase2_budget_sec = 1e-9;  // expires before iteration 1
  core::FriendSeeker seeker(exp.config);
  const auto result =
      seeker.run(exp.dataset, exp.split.train_pairs, exp.split.train_labels,
                 exp.split.test_pairs);
  EXPECT_EQ(result.test_predictions.size(), exp.split.test_pairs.size());
  EXPECT_EQ(result.iterations_run, 0);  // phase-1 graph kept
  ASSERT_TRUE(result.degradation.degraded());
  EXPECT_EQ(result.degradation.phases.front().phase, "phase2.refine");
  EXPECT_EQ(result.degradation.phases.front().reason, "deadline");
  EXPECT_GT(result.peak_memory_estimate, 0u);
}

TEST_F(RuntimeTest, PipelineDegradesGracefullyOnPhase2MemoryBudget) {
  TinyExperiment exp = make_tiny_experiment();
  // Probe phase 1 alone to learn the JOC + embedding footprint, then allow
  // just that: phase 2's edge-table/kernel charge must push past the limit.
  runtime::ExecutionContext probe;
  core::FriendSeekerConfig probe_cfg = exp.config;
  probe_cfg.context = &probe;
  probe_cfg.max_iterations = 0;
  core::FriendSeeker probe_seeker(probe_cfg);
  (void)probe_seeker.run(exp.dataset, exp.split.train_pairs,
                         exp.split.train_labels, exp.split.test_pairs);
  ASSERT_GT(probe.peak_charged(), 0u);

  runtime::ExecutionContext ctx;
  ctx.set_memory_limit(probe.peak_charged() + 1024);
  exp.config.context = &ctx;
  core::FriendSeeker seeker(exp.config);
  const auto result =
      seeker.run(exp.dataset, exp.split.train_pairs, exp.split.train_labels,
                 exp.split.test_pairs);
  EXPECT_EQ(result.test_predictions.size(), exp.split.test_pairs.size());
  ASSERT_TRUE(result.degradation.degraded());
  EXPECT_EQ(result.degradation.phases.front().reason, "memory");
  EXPECT_TRUE(result.fell_back_to_phase1);
}

TEST_F(RuntimeTest, PipelineDegradesWhenPhase2EdgeTableExceedsBudget) {
  TinyExperiment exp = make_tiny_experiment();
  // Phase 2 holds no composite matrix, so its first charge is the edge
  // table: a limit just above phase 1 fails there, and the message carries
  // the bytes already charged and the table's size.
  runtime::ExecutionContext probe;
  core::FriendSeekerConfig probe_cfg = exp.config;
  probe_cfg.context = &probe;
  probe_cfg.max_iterations = 0;
  core::FriendSeeker probe_seeker(probe_cfg);
  (void)probe_seeker.run(exp.dataset, exp.split.train_pairs,
                         exp.split.train_labels, exp.split.test_pairs);
  runtime::ExecutionContext tight;
  tight.set_memory_limit(probe.peak_charged() + 1);
  exp.config.context = &tight;
  const auto result =
      core::FriendSeeker(exp.config)
          .run(exp.dataset, exp.split.train_pairs, exp.split.train_labels,
               exp.split.test_pairs);
  EXPECT_EQ(result.test_predictions.size(), exp.split.test_pairs.size());
  ASSERT_TRUE(result.degradation.degraded());
  const runtime::PhaseDegradation& entry = result.degradation.phases.front();
  EXPECT_EQ(entry.phase, "phase2.refine");
  EXPECT_EQ(entry.reason, "memory");
  ASSERT_NE(entry.detail.find("core.phase2.edge_table"), std::string::npos)
      << entry.detail;
  unsigned long long charged = 0, table = 0;
  ASSERT_EQ(std::sscanf(entry.detail.c_str() + entry.detail.find('('),
                        "(%llu + %llu", &charged, &table),
            2)
      << entry.detail;
  EXPECT_EQ(result.iterations_run, 0);
  EXPECT_TRUE(result.fell_back_to_phase1);
  EXPECT_EQ(tight.charged(), 0u);  // every charge released

  // Room for the edge table and not one byte more: the next charge, inside
  // the first iteration, fails instead, and it degrades the same way.
  runtime::ExecutionContext ctx;
  ctx.set_memory_limit(static_cast<std::size_t>(charged + table));
  exp.config.context = &ctx;
  const auto past_table =
      core::FriendSeeker(exp.config)
          .run(exp.dataset, exp.split.train_pairs, exp.split.train_labels,
               exp.split.test_pairs);
  ASSERT_TRUE(past_table.degradation.degraded());
  const runtime::PhaseDegradation& later =
      past_table.degradation.phases.front();
  EXPECT_EQ(later.phase, "phase2.refine");
  EXPECT_EQ(later.reason, "memory");
  EXPECT_EQ(later.detail.find("core.phase2.edge_table"), std::string::npos)
      << later.detail;
  EXPECT_EQ(past_table.iterations_run, 0);
  EXPECT_TRUE(past_table.fell_back_to_phase1);
  EXPECT_EQ(ctx.charged(), 0u);
}

TEST_F(RuntimeTest, ChargedPeakCountsEachJocRowOnce) {
  // The scored JOC store is the only store of JOC rows: its charge is the
  // store's exact CSR bytes (one offset per row, one column and value per
  // non-zero), and phase 1's charged peak holds it once, beside the
  // autoencoder's weights and the presence rows, never a second copy.
  TinyExperiment exp = make_tiny_experiment();
  exp.config.max_iterations = 0;
  const geo::QuadtreeDivision division(exp.dataset.poi_coordinates(),
                                       exp.config.sigma);
  const geo::QuadtreeDivisionView view(division);
  const geo::TimeSlotting slots(
      exp.dataset.window_begin(), exp.dataset.window_end(),
      static_cast<geo::Timestamp>(exp.config.tau_days * geo::kSecondsPerDay));
  const block::CellIndex index(exp.dataset, view, slots);
  // Blocking is off at this size: the scored rows are the distinct train
  // and test pairs.
  std::set<data::UserPair> scored;
  for (const auto* list : {&exp.split.train_pairs, &exp.split.test_pairs})
    for (const data::UserPair& p : *list)
      scored.insert(data::make_pair_ordered(p.first, p.second));
  std::size_t nnz = 0;
  for (const data::UserPair& p : scored)
    nnz += core::joc_nnz(index, p.first, p.second);
  const std::size_t store = (scored.size() + 1) * sizeof(std::uint64_t) +
                            nnz * (sizeof(std::uint32_t) + sizeof(double));

  // One byte short of the store: its charge, the run's first, fails and
  // names its bytes.
  runtime::ExecutionContext tight;
  tight.set_memory_limit(store - 1);
  exp.config.context = &tight;
  try {
    (void)core::FriendSeeker(exp.config)
        .run(exp.dataset, exp.split.train_pairs, exp.split.train_labels,
             exp.split.test_pairs);
    FAIL() << "the JOC store's charge did not fail";
  } catch (const BudgetError& e) {
    const std::string what = e.what();
    ASSERT_NE(what.find("core.joc.matrix"), std::string::npos) << what;
    unsigned long long before = 1, bytes = 0;
    ASSERT_EQ(std::sscanf(what.c_str() + what.find('('), "(%llu + %llu",
                          &before, &bytes),
              2)
        << what;
    EXPECT_EQ(before, 0u);
    EXPECT_EQ(bytes, store);
  }

  runtime::ExecutionContext ctx;
  exp.config.context = &ctx;
  const auto result =
      core::FriendSeeker(exp.config)
          .run(exp.dataset, exp.split.train_pairs, exp.split.train_labels,
               exp.split.test_pairs);
  ASSERT_EQ(result.blocking.scored_pairs, scored.size());
  const std::vector<std::size_t> dims =
      core::make_encoder_dims(index.joc_dim(), exp.config.presence);
  std::size_t weights = 0;  // encoder and mirrored decoder
  for (std::size_t i = 0; i + 1 < dims.size(); ++i)
    weights += (2 * dims[i] * dims[i + 1] + dims[i] + dims[i + 1]) *
               sizeof(double);
  const std::size_t embeddings =
      scored.size() * exp.config.presence.feature_dim * sizeof(double);
  EXPECT_EQ(ctx.peak_charged(), store + weights + embeddings)
      << "store " << store << ", weights " << weights << ", embeddings "
      << embeddings;
  EXPECT_EQ(ctx.charged(), 0u);
}

TEST_F(RuntimeTest, TinyTauRunEndsInTheTypedBudgetError) {
  // At tau = 0.001 days the JOC is ~40k slots x the grids x 3 columns
  // wide. The sparse store stays small, so the budget must stop the
  // autoencoder's weights (that width x 320 doubles, for the encoder and
  // again for the decoder): their charge fails before they are
  // allocated, and the run ends in BudgetError, not in bad_alloc.
  TinyExperiment exp = make_tiny_experiment();
  exp.config.tau_days = 0.001;
  runtime::ExecutionContext ctx;
  ctx.set_memory_limit(std::size_t{64} << 20);
  exp.config.context = &ctx;
  try {
    (void)core::FriendSeeker(exp.config)
        .run(exp.dataset, exp.split.train_pairs, exp.split.train_labels,
             exp.split.test_pairs);
    FAIL() << "a tiny-tau run fit a 64 MB budget";
  } catch (const BudgetError& e) {
    EXPECT_NE(std::string(e.what()).find("core.presence.weights"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(ctx.charged(), 0u);
}

TEST_F(RuntimeTest, PipelineAbortsHardWhenCancelledBeforeJocBuild) {
  TinyExperiment exp = make_tiny_experiment();
  runtime::CancellationToken token;
  token.request();
  runtime::ExecutionContext ctx;
  ctx.set_cancellation(&token);
  exp.config.context = &ctx;
  core::FriendSeeker seeker(exp.config);
  // Cancellation predates the JOC build, whose partial output is unusable:
  // the run aborts with the typed error instead of degrading.
  EXPECT_THROW(
      seeker.run(exp.dataset, exp.split.train_pairs, exp.split.train_labels,
                 exp.split.test_pairs),
      CancelledError);
}

}  // namespace
}  // namespace fs
