// End-to-end integration tests: the full attack pipeline against the full
// evaluation protocol, including obfuscation countermeasures — small-scale
// versions of the paper's headline claims.
#include <gtest/gtest.h>

#include "baselines/colocation.h"
#include "baselines/walk2friends.h"
#include "data/obfuscation.h"
#include "eval/harness.h"
#include "geo/quadtree.h"

namespace fs {
namespace {

data::SyntheticWorldConfig integration_world() {
  data::SyntheticWorldConfig cfg;
  cfg.user_count = 170;
  cfg.poi_count = 450;
  cfg.city_count = 4;
  cfg.weeks = 8;
  cfg.seed = 77;
  return cfg;
}

core::FriendSeekerConfig integration_seeker() {
  core::FriendSeekerConfig cfg = eval::default_seeker_config();
  cfg.sigma = 80;
  cfg.presence.feature_dim = 24;
  cfg.presence.epochs = 8;
  cfg.presence.max_autoencoder_rows = 300;
  cfg.max_iterations = 3;
  return cfg;
}

class IntegrationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    experiment_ = new eval::Experiment(
        eval::make_experiment(integration_world()));
  }
  static void TearDownTestSuite() {
    delete experiment_;
    experiment_ = nullptr;
  }

  static eval::Experiment* experiment_;
};

eval::Experiment* IntegrationFixture::experiment_ = nullptr;

TEST_F(IntegrationFixture, FriendSeekerRecoversMajorityOfFriendships) {
  eval::FriendSeekerAttack attack(integration_seeker());
  const ml::Prf prf = eval::run_attack(attack, *experiment_);
  EXPECT_GT(prf.f1, 0.6);
  EXPECT_GT(prf.precision, 0.5);
  EXPECT_GT(prf.recall, 0.5);
}

TEST_F(IntegrationFixture, IterationImprovesOverPhaseOne) {
  eval::FriendSeekerAttack attack(integration_seeker());
  eval::run_attack(attack, *experiment_);
  const auto& iterations = attack.last_result().iterations;
  ASSERT_GE(iterations.size(), 2u);
  const ml::Prf phase1 = ml::prf(experiment_->split.test_labels,
                                 iterations.front().test_predictions);
  const ml::Prf final = ml::prf(experiment_->split.test_labels,
                                iterations.back().test_predictions);
  // The paper's Fig 10: refinement iteration always improves F1.
  EXPECT_GT(final.f1, phase1.f1 - 0.02);
}

TEST_F(IntegrationFixture, FindsFriendsWithoutCoLocations) {
  // Paper claim: FriendSeeker identifies a substantial share of friends
  // sharing no common locations — the knowledge-based methods cannot, by
  // construction.
  eval::FriendSeekerAttack seeker(integration_seeker());
  const auto seeker_pred = seeker.infer(
      experiment_->dataset, experiment_->split.train_pairs,
      experiment_->split.train_labels, experiment_->split.test_pairs);

  baselines::CoLocationAttack colocation;
  const auto coloc_pred = colocation.infer(
      experiment_->dataset, experiment_->split.train_pairs,
      experiment_->split.train_labels, experiment_->split.test_pairs);

  std::size_t hidden_friends = 0, seeker_found = 0, coloc_found = 0;
  for (std::size_t i = 0; i < experiment_->split.test_pairs.size(); ++i) {
    if (!experiment_->split.test_labels[i]) continue;
    const auto [a, b] = experiment_->split.test_pairs[i];
    if (experiment_->dataset.common_poi_count(a, b) > 0) continue;
    ++hidden_friends;
    seeker_found += seeker_pred[i];
    coloc_found += coloc_pred[i];
  }
  ASSERT_GT(hidden_friends, 0u);
  EXPECT_EQ(coloc_found, 0u);  // structurally impossible for co-location
  EXPECT_GT(static_cast<double>(seeker_found) /
                static_cast<double>(hidden_friends),
            0.25);
}

TEST_F(IntegrationFixture, HidingObfuscationDegradesGracefully) {
  // 30 % hiding should reduce but not destroy FriendSeeker's accuracy
  // (paper: F1 stays around 0.4 even at 50 % obfuscation).
  util::Rng rng(5);
  const data::Dataset hidden =
      data::hide_checkins(experiment_->dataset, 0.3, rng);
  eval::Experiment obfuscated;
  obfuscated.dataset = hidden;
  obfuscated.split = experiment_->split;
  obfuscated.name = "hidden-30";

  eval::FriendSeekerAttack attack(integration_seeker());
  const ml::Prf prf = eval::run_attack(attack, obfuscated);
  EXPECT_GT(prf.f1, 0.45);
}

TEST_F(IntegrationFixture, CrossGridBlurringHurtsMoreThanInGrid) {
  // The paper finds cross-grid blurring the strongest countermeasure; at
  // small scale we assert the weaker, more robust property: both keep the
  // attack above floor, and neither beats the clean dataset.
  eval::FriendSeekerAttack clean_attack(integration_seeker());
  const ml::Prf clean = eval::run_attack(clean_attack, *experiment_);

  const geo::QuadtreeDivision division(
      experiment_->dataset.poi_coordinates(), 80);
  util::Rng rng(9);
  const data::Dataset blurred =
      data::blur_cross_grid(experiment_->dataset, 0.4, division, rng);
  eval::Experiment obfuscated;
  obfuscated.dataset = blurred;
  obfuscated.split = experiment_->split;
  obfuscated.name = "crossblur-40";

  eval::FriendSeekerAttack attack(integration_seeker());
  const ml::Prf perturbed = eval::run_attack(attack, obfuscated);
  EXPECT_LT(perturbed.f1, clean.f1 + 0.02);
  EXPECT_GT(perturbed.f1, 0.35);
}

TEST_F(IntegrationFixture, SupervisedAblationBeatsPlainAutoencoder) {
  core::FriendSeekerConfig supervised = integration_seeker();
  supervised.max_iterations = 0;  // isolate phase 1
  core::FriendSeekerConfig unsupervised = supervised;
  unsupervised.presence.alpha = 0.0;

  eval::FriendSeekerAttack with(supervised);
  eval::FriendSeekerAttack without(unsupervised);
  const ml::Prf f_with = eval::run_attack(with, *experiment_);
  const ml::Prf f_without = eval::run_attack(without, *experiment_);
  // The supervision term exists to make the code discriminative; allow a
  // small tolerance for seed noise but require no large regression.
  EXPECT_GT(f_with.f1, f_without.f1 - 0.05);
}

}  // namespace
}  // namespace fs
