#include "eval/harness.h"

#include <stdexcept>

#include "baselines/colocation.h"
#include "baselines/distance.h"
#include "baselines/usergraph.h"
#include "baselines/walk2friends.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace fs::eval {

Experiment make_experiment(const data::SyntheticWorldConfig& world_config,
                           const PairSamplingConfig& sampling,
                           double train_fraction, std::uint64_t split_seed) {
  data::SyntheticWorld world = data::generate_world(world_config);
  return make_experiment(std::move(world.dataset), world_config.name,
                         sampling, train_fraction, split_seed);
}

Experiment make_experiment(data::Dataset dataset, const std::string& name,
                           const PairSamplingConfig& sampling,
                           double train_fraction, std::uint64_t split_seed) {
  Experiment e;
  const LabeledPairs all = sample_candidate_pairs(dataset, sampling);
  e.split = split_pairs(all, train_fraction, split_seed);
  e.dataset = std::move(dataset);
  e.name = name;
  return e;
}

ml::Prf run_attack(baselines::FriendshipAttack& attack,
                   const Experiment& experiment) {
  obs::Span timer("eval.attack.run");
  const std::vector<int> predictions =
      attack.infer(experiment.dataset, experiment.split.train_pairs,
                   experiment.split.train_labels,
                   experiment.split.test_pairs);
  const ml::Prf result = ml::prf(experiment.split.test_labels, predictions);
  util::log_info(attack.name(), " on ", experiment.name,
                 ": F1=", result.f1, " P=", result.precision,
                 " R=", result.recall, " (", timer.seconds(), "s)");
  return result;
}

std::vector<int> FriendSeekerAttack::infer(
    const data::Dataset& dataset,
    const std::vector<data::UserPair>& train_pairs,
    const std::vector<int>& train_labels,
    const std::vector<data::UserPair>& test_pairs) {
  last_result_ = seeker_.run(dataset, train_pairs, train_labels, test_pairs);
  return last_result_.test_predictions;
}

core::FriendSeekerConfig default_seeker_config() {
  core::FriendSeekerConfig cfg;
  cfg.sigma = 200;
  cfg.tau_days = 7.0;
  cfg.k = 3;
  cfg.presence.feature_dim = 64;
  cfg.presence.epochs = 14;
  cfg.presence.max_autoencoder_rows = 600;
  return cfg;
}

std::vector<std::unique_ptr<baselines::FriendshipAttack>> make_baselines() {
  std::vector<std::unique_ptr<baselines::FriendshipAttack>> out;
  out.push_back(std::make_unique<baselines::CoLocationAttack>());
  out.push_back(std::make_unique<baselines::DistanceAttack>());
  out.push_back(std::make_unique<baselines::Walk2FriendsAttack>());
  out.push_back(std::make_unique<baselines::UserGraphAttack>());
  return out;
}

std::unique_ptr<baselines::FriendshipAttack> make_attack(
    const std::string& name, const core::FriendSeekerConfig& seeker) {
  if (name == "friendseeker")
    return std::make_unique<FriendSeekerAttack>(seeker);
  for (auto& baseline : make_baselines())
    if (baseline->name() == name) return std::move(baseline);
  throw std::invalid_argument("unknown attack '" + name + "'");
}

std::vector<std::string> attack_names() {
  std::vector<std::string> names{"friendseeker"};
  for (const auto& baseline : make_baselines())
    names.push_back(baseline->name());
  return names;
}

std::vector<std::size_t> pair_common_locations(
    const data::Dataset& dataset, const std::vector<data::UserPair>& pairs) {
  std::vector<std::size_t> out;
  out.reserve(pairs.size());
  for (const auto& [a, b] : pairs)
    out.push_back(dataset.common_poi_count(a, b));
  return out;
}

std::vector<std::size_t> pair_checkin_counts(
    const data::Dataset& dataset, const std::vector<data::UserPair>& pairs) {
  std::vector<std::size_t> out;
  out.reserve(pairs.size());
  for (const auto& [a, b] : pairs)
    out.push_back(dataset.checkin_count(a) + dataset.checkin_count(b));
  return out;
}

}  // namespace fs::eval
