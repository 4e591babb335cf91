// Shared experiment harness: one protocol for FriendSeeker and every
// baseline, plus the stratified analyses behind Fig 12/13.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baselines/baseline.h"
#include "core/pipeline.h"
#include "data/synthetic.h"
#include "eval/pairs.h"
#include "ml/metrics.h"

namespace fs::eval {

/// A fully-prepared experiment: dataset + labeled 70/30 pair split.
struct Experiment {
  data::Dataset dataset;
  PairSplit split;
  std::string name;
};

/// Builds the standard experiment for a synthetic world preset.
Experiment make_experiment(const data::SyntheticWorldConfig& world_config,
                           const PairSamplingConfig& sampling = {},
                           double train_fraction = 0.7,
                           std::uint64_t split_seed = 7);

/// Same, but over an existing dataset (obfuscation benches re-use the
/// original pair split with a perturbed dataset).
Experiment make_experiment(data::Dataset dataset, const std::string& name,
                           const PairSamplingConfig& sampling = {},
                           double train_fraction = 0.7,
                           std::uint64_t split_seed = 7);

/// Runs a baseline attack on the experiment; returns test-set metrics.
ml::Prf run_attack(baselines::FriendshipAttack& attack,
                   const Experiment& experiment);

/// FriendSeeker behind the common FriendshipAttack interface, so the
/// comparison benches treat all five attacks identically. Also exposes the
/// last full pipeline result (per-iteration records for Fig 10).
class FriendSeekerAttack final : public baselines::FriendshipAttack {
 public:
  explicit FriendSeekerAttack(const core::FriendSeekerConfig& config)
      : seeker_(config) {}

  std::string name() const override { return "friendseeker"; }

  std::vector<int> infer(const data::Dataset& dataset,
                         const std::vector<data::UserPair>& train_pairs,
                         const std::vector<int>& train_labels,
                         const std::vector<data::UserPair>& test_pairs)
      override;

  /// The last run's scores, read in place.
  const std::vector<double>& test_scores() const override {
    return last_result_.test_scores;
  }

  const core::FriendSeekerResult& last_result() const { return last_result_; }

 private:
  core::FriendSeeker seeker_;
  core::FriendSeekerResult last_result_;
};

/// A FriendSeeker configuration tuned for the laptop-scale synthetic
/// worlds (the paper-default hyperparameters, scaled: tau = 7 days,
/// d = 64, sigma = 200).
core::FriendSeekerConfig default_seeker_config();

/// The four baselines with sensible defaults, name -> instance.
std::vector<std::unique_ptr<baselines::FriendshipAttack>> make_baselines();

/// The attack called `name`: "friendseeker" (run with `seeker`) or one of
/// make_baselines()' names. Throws std::invalid_argument otherwise.
std::unique_ptr<baselines::FriendshipAttack> make_attack(
    const std::string& name, const core::FriendSeekerConfig& seeker);

/// Every name make_attack accepts, "friendseeker" first.
std::vector<std::string> attack_names();

// ---- Stratified analyses ----

/// Buckets for "number of common locations" (Fig 12) and "number of
/// check-ins owned by a pair" (Fig 13).
std::vector<std::size_t> pair_common_locations(
    const data::Dataset& dataset, const std::vector<data::UserPair>& pairs);
std::vector<std::size_t> pair_checkin_counts(
    const data::Dataset& dataset, const std::vector<data::UserPair>& pairs);

}  // namespace fs::eval
