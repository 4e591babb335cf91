// Fault-injection suite: drives the failpoint registry and verifies the
// pipeline degrades gracefully end to end — NaN training falls back to the
// phase-1 graph, torn checkpoints are rejected and restart cleanly, and
// permissive ingestion survives malformed traces with an accurate report.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "core/checkpoint.h"
#include "core/pipeline.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "eval/pairs.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace fs {
namespace {

namespace fp = util::failpoint;

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::clear(); }
  void TearDown() override { fp::clear(); }
};

// ---------- registry semantics ----------

TEST_F(FailpointTest, InactiveByDefault) {
  EXPECT_FALSE(fp::any_active());
  EXPECT_FALSE(fp::fail("no.such.point"));
  EXPECT_DOUBLE_EQ(fp::corrupt("no.such.point", 2.5), 2.5);
  EXPECT_EQ(fp::truncate("no.such.point", 100), 100u);
}

TEST_F(FailpointTest, ActivateDeactivate) {
  fp::activate("t.a.error", fp::Action::kError);
  EXPECT_TRUE(fp::any_active());
  EXPECT_TRUE(fp::fail("t.a.error"));
  EXPECT_EQ(fp::triggers("t.a.error"), 1u);
  fp::deactivate("t.a.error");
  EXPECT_FALSE(fp::fail("t.a.error"));
  EXPECT_FALSE(fp::any_active());
}

TEST_F(FailpointTest, SkipAndLimitBudget) {
  fp::Config config;
  config.action = fp::Action::kError;
  config.skip = 1;
  config.limit = 2;
  fp::activate("t.a.budget", config);
  EXPECT_FALSE(fp::fail("t.a.budget"));  // skipped
  EXPECT_TRUE(fp::fail("t.a.budget"));
  EXPECT_TRUE(fp::fail("t.a.budget"));
  EXPECT_FALSE(fp::fail("t.a.budget"));  // limit exhausted
  EXPECT_EQ(fp::evaluations("t.a.budget"), 4u);
  EXPECT_EQ(fp::triggers("t.a.budget"), 2u);
}

TEST_F(FailpointTest, ActionsMapToHelpers) {
  fp::activate("t.a.nan", fp::Action::kNan);
  EXPECT_TRUE(std::isnan(fp::corrupt("t.a.nan", 1.0)));
  // A nan-action point never makes fail()/truncate() fire.
  fp::activate("t.b.nan", fp::Action::kNan);
  EXPECT_FALSE(fp::fail("t.b.nan"));

  fp::activate("t.a.trunc", fp::Action::kTruncate);
  EXPECT_EQ(fp::truncate("t.a.trunc", 100), 50u);

  fp::activate("t.a.lat", fp::Action::kLatency);
  EXPECT_FALSE(fp::fail("t.a.lat"));  // delays, never fails
  EXPECT_EQ(fp::triggers("t.a.lat"), 1u);
}

TEST_F(FailpointTest, InitFromEnv) {
  ::setenv("FS_FAILPOINTS", "env.a=error:limit=2; env.b=nan", 1);
  fp::init_from_env();
  ::unsetenv("FS_FAILPOINTS");
  EXPECT_TRUE(fp::fail("env.a"));
  EXPECT_TRUE(fp::fail("env.a"));
  EXPECT_FALSE(fp::fail("env.a"));
  EXPECT_TRUE(std::isnan(fp::corrupt("env.b", 0.0)));
}

// ---------- hardened ingestion under injected I/O faults ----------

TEST_F(FailpointTest, LoaderOpenFailureThrowsIoError) {
  const std::string dir = testing::TempDir() + "/fs_fp_loader";
  std::filesystem::create_directories(dir);
  {
    std::ofstream checkins(dir + "/checkins.txt");
    checkins << "1\t1970-01-01T00:00:00Z\t1.0\t2.0\t7\n";
    checkins << "1\t1970-01-02T00:00:00Z\t1.0\t2.0\t7\n";
    std::ofstream edges(dir + "/edges.txt");
  }
  fp::activate("data.load.open", fp::Action::kError);
  EXPECT_THROW(
      data::load_checkins_snap(dir + "/checkins.txt", dir + "/edges.txt"),
      IoError);
  fp::clear();
  EXPECT_NO_THROW(
      data::load_checkins_snap(dir + "/checkins.txt", dir + "/edges.txt"));
}

// ---------- numeric guards in training ----------

nn::AutoencoderConfig tiny_autoencoder_config() {
  nn::AutoencoderConfig cfg;
  cfg.encoder_dims = {10, 6, 3};
  cfg.epochs = 4;
  cfg.seed = 11;
  return cfg;
}

void tiny_training_data(nn::Matrix& x, std::vector<int>& y) {
  util::Rng rng(19);
  x = nn::Matrix(32, 10);
  y.assign(32, 0);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 2);
}

TEST_F(FailpointTest, AutoencoderRetriesTransientNan) {
  nn::Matrix x;
  std::vector<int> y;
  tiny_training_data(x, y);
  nn::AutoencoderConfig cfg = tiny_autoencoder_config();
  util::Diagnostics diagnostics;
  cfg.diagnostics = &diagnostics;
  // One poisoned batch: the first attempt diverges, the retry runs clean.
  fp::activate("nn.train.nan", fp::Action::kNan, /*limit=*/1);
  nn::SupervisedAutoencoder ae(cfg);
  EXPECT_NO_THROW(ae.train(x, y));
  EXPECT_GE(diagnostics.entries().size(), 1u);
  EXPECT_FALSE(diagnostics.has_errors());  // a survived retry is a warning
  for (double p : ae.predict_proba(x)) EXPECT_TRUE(std::isfinite(p));
}

TEST_F(FailpointTest, AutoencoderGivesUpAfterRepeatedDivergence) {
  nn::Matrix x;
  std::vector<int> y;
  tiny_training_data(x, y);
  nn::AutoencoderConfig cfg = tiny_autoencoder_config();
  util::Diagnostics diagnostics;
  cfg.diagnostics = &diagnostics;
  fp::activate("nn.train.nan", fp::Action::kNan);  // every attempt poisoned
  nn::SupervisedAutoencoder ae(cfg);
  EXPECT_THROW(ae.train(x, y), ConvergenceError);
  EXPECT_GE(diagnostics.entries().size(), 1u);
}

// ---------- end-to-end graceful degradation ----------

struct SmallExperiment {
  data::Dataset dataset;
  eval::PairSplit split;
  core::FriendSeekerConfig config;
};

SmallExperiment make_small_experiment() {
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

TEST_F(FailpointTest, PipelineFallsBackToPhase1OnNanTraining) {
  SmallExperiment exp = make_small_experiment();
  // Every phase-2 SVM fit sees a non-finite feature and throws; phase 1
  // must still come back as a usable (if unrefined) result.
  fp::activate("ml.svm.nan", fp::Action::kNan);
  core::FriendSeeker seeker(exp.config);
  const auto result =
      seeker.run(exp.dataset, exp.split.train_pairs, exp.split.train_labels,
                 exp.split.test_pairs);
  EXPECT_EQ(result.test_predictions.size(), exp.split.test_pairs.size());
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.fell_back_to_phase1);
  EXPECT_EQ(result.iterations_run, 0);
  EXPECT_TRUE(result.diagnostics.has_errors());
}

TEST_F(FailpointTest, PipelineCheckpointsAndResumes) {
  SmallExperiment exp = make_small_experiment();
  const std::string dir = testing::TempDir() + "/fs_fp_resume";
  std::filesystem::remove_all(dir);

  exp.config.checkpoint_dir = dir;
  exp.config.max_iterations = 1;
  core::FriendSeeker first(exp.config);
  const auto before =
      first.run(exp.dataset, exp.split.train_pairs, exp.split.train_labels,
                exp.split.test_pairs);
  ASSERT_TRUE(std::filesystem::exists(dir + "/checkpoint.fsck"));

  // Resume picks up after iteration 1 and runs only iteration 2.
  exp.config.max_iterations = 2;
  exp.config.resume = true;
  core::FriendSeeker second(exp.config);
  const auto resumed =
      second.run(exp.dataset, exp.split.train_pairs, exp.split.train_labels,
                 exp.split.test_pairs);
  EXPECT_EQ(resumed.resumed_from_iteration, 1);
  EXPECT_EQ(resumed.iterations_run, 2);
  EXPECT_EQ(resumed.test_predictions.size(), exp.split.test_pairs.size());
  EXPECT_FALSE(resumed.fell_back_to_phase1);
  (void)before;
}

TEST_F(FailpointTest, PipelineSurvivesCheckpointSaveFailure) {
  SmallExperiment exp = make_small_experiment();
  const std::string dir = testing::TempDir() + "/fs_fp_savefail";
  std::filesystem::remove_all(dir);
  exp.config.checkpoint_dir = dir;
  exp.config.max_iterations = 1;
  fp::activate("checkpoint.save.io", fp::Action::kError);
  core::FriendSeeker seeker(exp.config);
  const auto result =
      seeker.run(exp.dataset, exp.split.train_pairs, exp.split.train_labels,
                 exp.split.test_pairs);
  // The run finishes; the lost checkpoint is only a diagnostic.
  EXPECT_EQ(result.test_predictions.size(), exp.split.test_pairs.size());
  EXPECT_FALSE(std::filesystem::exists(dir + "/checkpoint.fsck"));
  EXPECT_GE(result.diagnostics.entries().size(), 1u);
}

TEST_F(FailpointTest, FailedRenameLeavesNoStrayTempFile) {
  SmallExperiment exp = make_small_experiment();
  const std::string dir = testing::TempDir() + "/fs_fp_renamefail";
  std::filesystem::remove_all(dir);
  exp.config.checkpoint_dir = dir;
  exp.config.max_iterations = 1;
  fp::activate("checkpoint.save.rename", fp::Action::kError);
  core::FriendSeeker seeker(exp.config);
  const auto result =
      seeker.run(exp.dataset, exp.split.train_pairs, exp.split.train_labels,
                 exp.split.test_pairs);
  // The save failed after the temp file was fully written: the writer must
  // remove it again, never leaving a half-promoted checkpoint behind.
  EXPECT_EQ(result.test_predictions.size(), exp.split.test_pairs.size());
  EXPECT_FALSE(std::filesystem::exists(dir + "/checkpoint.fsck"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/checkpoint.fsck.tmp"));
  EXPECT_GE(result.diagnostics.entries().size(), 1u);
}

TEST_F(FailpointTest, ResumeRejectsTruncatedCheckpointAndRestarts) {
  SmallExperiment exp = make_small_experiment();
  const std::string dir = testing::TempDir() + "/fs_fp_truncated";
  std::filesystem::remove_all(dir);
  exp.config.checkpoint_dir = dir;
  exp.config.max_iterations = 1;
  core::FriendSeeker first(exp.config);
  (void)first.run(exp.dataset, exp.split.train_pairs, exp.split.train_labels,
                  exp.split.test_pairs);
  ASSERT_TRUE(std::filesystem::exists(dir + "/checkpoint.fsck"));

  // A torn read drops the file's tail: the load must fail loudly...
  fp::activate("checkpoint.load.truncate", fp::Action::kTruncate);
  EXPECT_THROW(core::load_pipeline_checkpoint(dir + "/checkpoint.fsck"),
               CorruptCheckpoint);

  // ...and a resume against it must restart cleanly instead of crashing
  // or silently mixing in garbage.
  fp::clear();
  fp::activate("checkpoint.load.truncate", fp::Action::kTruncate);
  exp.config.resume = true;
  core::FriendSeeker second(exp.config);
  const auto result =
      second.run(exp.dataset, exp.split.train_pairs, exp.split.train_labels,
                 exp.split.test_pairs);
  EXPECT_EQ(result.resumed_from_iteration, 0);
  EXPECT_EQ(result.test_predictions.size(), exp.split.test_pairs.size());
  EXPECT_GE(result.diagnostics.entries().size(), 1u);
}

TEST_F(FailpointTest, ResumeRejectsBitRot) {
  SmallExperiment exp = make_small_experiment();
  const std::string dir = testing::TempDir() + "/fs_fp_bitrot";
  std::filesystem::remove_all(dir);
  exp.config.checkpoint_dir = dir;
  exp.config.max_iterations = 1;
  core::FriendSeeker first(exp.config);
  (void)first.run(exp.dataset, exp.split.train_pairs, exp.split.train_labels,
                  exp.split.test_pairs);
  const std::string path = dir + "/checkpoint.fsck";
  ASSERT_TRUE(std::filesystem::exists(path));

  // Flip one bit in the middle of the payload.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream raw;
    raw << in.rdbuf();
    bytes = raw.str();
  }
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] ^= 0x04;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(core::load_pipeline_checkpoint(path), CorruptCheckpoint);
}

// The checkpoint fingerprint covers every config_fields() row except
// max_iterations: changing any other row between save and resume must
// refuse the checkpoint and restart from phase 1.
TEST_F(FailpointTest, ResumeRefusesEveryChangedConfigField) {
  SmallExperiment exp = make_small_experiment();
  const std::string dir = testing::TempDir() + "/fs_fp_fingerprint";
  std::filesystem::remove_all(dir);
  exp.config.checkpoint_dir = dir + "/saved";
  exp.config.max_iterations = 1;
  core::FriendSeeker first(exp.config);
  (void)first.run(exp.dataset, exp.split.train_pairs, exp.split.train_labels,
                  exp.split.test_pairs);
  const std::string saved = dir + "/saved/checkpoint.fsck";
  ASSERT_TRUE(std::filesystem::exists(saved));

  for (const core::ConfigField& field : core::config_fields()) {
    if (std::string(field.name) == "max_iterations") continue;
    SCOPED_TRACE(field.name);
    core::FriendSeekerConfig cfg = exp.config;
    const double value = field.get(cfg);
    field.set(cfg, value + 1 <= field.hi ? value + 1 : value - 1);
    cfg.checkpoint_dir = dir + "/" + field.name;
    cfg.resume = true;
    std::filesystem::create_directories(cfg.checkpoint_dir);
    std::filesystem::copy_file(saved, cfg.checkpoint_dir + "/checkpoint.fsck");

    core::FriendSeeker second(cfg);
    const auto result =
        second.run(exp.dataset, exp.split.train_pairs, exp.split.train_labels,
                   exp.split.test_pairs);
    EXPECT_EQ(result.resumed_from_iteration, 0);
    bool mismatch = false;
    for (const util::Diagnostic& d : result.diagnostics.entries())
      mismatch |= d.message.find("checkpoint fingerprint mismatch") !=
                  std::string::npos;
    EXPECT_TRUE(mismatch);
  }
}

// ---------- permissive ingestion of a dirty trace, end to end ----------

TEST_F(FailpointTest, PermissiveLoadSurvivesTenPercentGarbage) {
  data::SyntheticWorldConfig world_cfg;
  world_cfg.user_count = 60;
  world_cfg.poi_count = 150;
  world_cfg.city_count = 2;
  world_cfg.weeks = 3;
  world_cfg.seed = 23;
  const auto world = data::generate_world(world_cfg);
  const std::string dir = testing::TempDir() + "/fs_fp_dirty";
  std::filesystem::create_directories(dir);
  data::save_checkins_snap(world.dataset, dir + "/checkins.txt",
                           dir + "/edges.txt");

  // Corrupt ~10 % of the trace: append one garbage line per nine clean
  // ones, cycling through every malformation category.
  const std::size_t clean = world.dataset.checkin_count();
  const std::size_t garbage = clean / 9;
  {
    std::ofstream checkins(dir + "/checkins.txt", std::ios::app);
    for (std::size_t i = 0; i < garbage; ++i) {
      switch (i % 4) {
        case 0: checkins << "999\n"; break;
        case 1: checkins << "999\t2010-02-31T00:00:00Z\t1.0\t2.0\t7\n"; break;
        case 2: checkins << "999\t2010-01-01T00:00:00Z\txx\t2.0\t7\n"; break;
        case 3: checkins << "999\t2010-01-01T00:00:00Z\t99.0\t2.0\t7\n"; break;
      }
    }
  }

  // Strict mode refuses the dirty trace outright.
  EXPECT_THROW(
      data::load_checkins_snap(dir + "/checkins.txt", dir + "/edges.txt"),
      ParseError);

  data::LoadOptions options;
  options.strictness = data::Strictness::kPermissive;
  data::LoadReport report;
  const data::Dataset loaded = data::load_checkins_snap(
      dir + "/checkins.txt", dir + "/edges.txt", options, &report);

  // Every clean record survived, every garbage line was quarantined and
  // attributed to the right category.
  EXPECT_EQ(loaded.user_count(), world.dataset.user_count());
  EXPECT_EQ(loaded.checkin_count(), clean);
  EXPECT_EQ(report.checkin_lines, clean + garbage);
  EXPECT_EQ(report.accepted_checkins, clean);
  EXPECT_EQ(report.quarantined_checkins(), garbage);
  EXPECT_EQ(report.short_lines + report.bad_timestamps + report.bad_numbers +
                report.out_of_range_coords,
            garbage);
  EXPECT_FALSE(report.sample_bad_lines.empty());
}

}  // namespace
}  // namespace fs
