// Resume-equivalence: a pipeline run killed at ANY phase-2 iteration
// boundary and resumed from its checkpoint must produce results
// byte-identical to an uninterrupted run. This is the invariant the chaos
// harness leans on — without it, a resumed run silently computes a
// different attack than the one that was interrupted.
//
// The kill is injected via the `pipeline.iteration.abort` failpoint, which
// throws InjectedKill right after the checkpoint save — the closest
// in-process analogue of SIGKILL at the iteration boundary.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "core/checkpoint.h"
#include "core/pipeline.h"
#include "data/synthetic.h"
#include "eval/digest.h"
#include "eval/pairs.h"
#include "graph/metrics.h"
#include "util/durable.h"
#include "util/failpoint.h"

namespace fs {
namespace {

namespace fp = util::failpoint;

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
  const eval::LabeledPairs pairs = eval::sample_candidate_pairs(world.dataset);
  core::FriendSeekerConfig cfg;
  cfg.sigma = 50;
  cfg.presence.feature_dim = 12;
  cfg.presence.epochs = 3;
  cfg.presence.max_autoencoder_rows = 120;
  cfg.max_iterations = 3;
  // Never converge early: every run executes all three iterations, so the
  // kill schedule below covers every boundary.
  cfg.convergence_threshold = 0.0;
  return {world.dataset, eval::split_pairs(pairs, 0.7, 5), cfg};
}

core::FriendSeekerResult run_once(const Experiment& exp,
                                  const core::FriendSeekerConfig& cfg) {
  core::FriendSeeker seeker(cfg);
  return seeker.run(exp.dataset, exp.split.train_pairs,
                    exp.split.train_labels, exp.split.test_pairs);
}

/// Byte-level equality for the double score vectors: bitwise identity, not
/// approximate closeness, is the contract.
bool bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

class ResumeEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::clear(); }
  void TearDown() override { fp::clear(); }
};

TEST_F(ResumeEquivalenceTest, CheckpointingLeavesTheResultUnchanged) {
  // Saving the live model every iteration must not disturb the run, and
  // the file must hold that model exactly: loading it and saving it again
  // gives the same bytes.
  const Experiment exp = make_experiment();
  const core::FriendSeekerResult plain = run_once(exp, exp.config);
  const std::string dir = testing::TempDir() + "/fs_resume_eq_ckpt";
  std::filesystem::remove_all(dir);
  core::FriendSeekerConfig cfg = exp.config;
  cfg.checkpoint_dir = dir;
  const core::FriendSeekerResult saved = run_once(exp, cfg);
  EXPECT_EQ(eval::result_digest(saved), eval::result_digest(plain));

  const std::string path = dir + "/checkpoint.fsck";
  const core::PipelineCheckpoint cp = core::load_pipeline_checkpoint(path);
  EXPECT_EQ(cp.iteration, exp.config.max_iterations);
  ASSERT_TRUE(cp.presence.has_value());
  EXPECT_TRUE(cp.presence->trained());
  core::save_pipeline_checkpoint(dir + "/again.fsck", cp);
  EXPECT_EQ(util::read_file(dir + "/again.fsck"), util::read_file(path));
}

TEST_F(ResumeEquivalenceTest, KilledAtEveryBoundaryMatchesUninterrupted) {
  const Experiment exp = make_experiment();
  const core::FriendSeekerResult baseline = run_once(exp, exp.config);
  ASSERT_EQ(baseline.iterations_run, exp.config.max_iterations);

  for (int boundary = 1; boundary <= exp.config.max_iterations; ++boundary) {
    SCOPED_TRACE("kill after iteration " + std::to_string(boundary));
    const std::string dir = testing::TempDir() + "/fs_resume_eq_" +
                            std::to_string(boundary);
    std::filesystem::remove_all(dir);

    core::FriendSeekerConfig cfg = exp.config;
    cfg.checkpoint_dir = dir;
    fp::clear();
    fp::Config abort_cfg;
    abort_cfg.action = fp::Action::kError;
    abort_cfg.skip = boundary - 1;  // fire at the boundary-th evaluation
    abort_cfg.limit = 1;
    fp::activate("pipeline.iteration.abort", abort_cfg);

    bool killed = false;
    try {
      (void)run_once(exp, cfg);
    } catch (const fp::InjectedKill&) {
      killed = true;
    }
    ASSERT_TRUE(killed);
    // The kill fires after the save: the checkpoint must be complete, and
    // no torn temp file may exist.
    ASSERT_TRUE(std::filesystem::exists(dir + "/checkpoint.fsck"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/checkpoint.fsck.tmp"));

    cfg.resume = true;
    const core::FriendSeekerResult resumed = run_once(exp, cfg);
    EXPECT_EQ(resumed.resumed_from_iteration, boundary);
    // A kill after the final iteration leaves nothing to recompute: the
    // resumed process replays 0 iterations and serves the checkpoint.
    EXPECT_EQ(resumed.iterations_run,
              boundary < exp.config.max_iterations
                  ? exp.config.max_iterations
                  : 0);

    // Byte-identical outcome: predictions, decision scores, and the final
    // graph all match the uninterrupted run exactly.
    EXPECT_EQ(resumed.test_predictions, baseline.test_predictions);
    EXPECT_TRUE(bytes_equal(resumed.test_scores, baseline.test_scores));
    EXPECT_EQ(resumed.final_graph.edge_count(),
              baseline.final_graph.edge_count());
    EXPECT_DOUBLE_EQ(graph::edge_change_ratio(resumed.final_graph,
                                              baseline.final_graph),
                     0.0);
  }
}

TEST_F(ResumeEquivalenceTest, DoubleKillStillConverges) {
  // Two kills in one logical run: the first fresh attempt dies after
  // iteration 1, the resumed attempt dies after iteration 2, and the third
  // attempt finishes. Still byte-identical to the uninterrupted run.
  const Experiment exp = make_experiment();
  const core::FriendSeekerResult baseline = run_once(exp, exp.config);

  const std::string dir = testing::TempDir() + "/fs_resume_eq_double";
  std::filesystem::remove_all(dir);
  core::FriendSeekerConfig cfg = exp.config;
  cfg.checkpoint_dir = dir;
  fp::Config abort_cfg;
  abort_cfg.action = fp::Action::kError;
  abort_cfg.limit = 2;  // the first two boundary evaluations both kill
  fp::activate("pipeline.iteration.abort", abort_cfg);

  int kills = 0;
  core::FriendSeekerResult final_result;
  for (;;) {
    try {
      final_result = run_once(exp, cfg);
      break;
    } catch (const fp::InjectedKill&) {
      ++kills;
      ASSERT_LE(kills, 3) << "kill budget must exhaust";
      cfg.resume = true;
    }
  }
  EXPECT_EQ(kills, 2);
  EXPECT_EQ(final_result.test_predictions, baseline.test_predictions);
  EXPECT_TRUE(bytes_equal(final_result.test_scores, baseline.test_scores));
  EXPECT_DOUBLE_EQ(graph::edge_change_ratio(final_result.final_graph,
                                            baseline.final_graph),
                   0.0);
}

}  // namespace
}  // namespace fs
