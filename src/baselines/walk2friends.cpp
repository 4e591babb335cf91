#include "baselines/walk2friends.h"

#include <map>

namespace fs::baselines {

embed::WeightedGraph Walk2FriendsAttack::build_bipartite(
    const data::Dataset& dataset) {
  embed::WeightedGraph g(dataset.user_count() + dataset.poi_count());
  // Aggregate visit counts before inserting so add_weight's linear probing
  // stays cheap on heavy users.
  std::map<std::pair<data::UserId, data::PoiId>, double> visits;
  for (const data::CheckIn& c : dataset.checkins())
    visits[{c.user, c.poi}] += 1.0;
  for (const auto& [key, weight] : visits)
    g.add_weight(key.first,
                 static_cast<embed::VocabId>(dataset.user_count() +
                                             key.second),
                 weight);
  return g;
}

std::vector<int> Walk2FriendsAttack::infer(
    const data::Dataset& dataset,
    const std::vector<data::UserPair>& train_pairs,
    const std::vector<int>& train_labels,
    const std::vector<data::UserPair>& test_pairs) {
  const embed::WeightedGraph bipartite = build_bipartite(dataset);
  util::Rng rng(config_.seed);
  const auto corpus = embed::generate_walks(bipartite, config_.walks, rng);
  const nn::Matrix embeddings = embed::train_skipgram(
      corpus, dataset.user_count() + dataset.poi_count(), config_.skipgram);

  return threshold_scores(
      [&](const data::UserPair& p) {
        return embed::cosine_similarity(embeddings, p.first, p.second);
      },
      train_pairs, train_labels, test_pairs);
}

}  // namespace fs::baselines
