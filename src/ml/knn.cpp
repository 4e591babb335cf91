#include "ml/knn.h"

#include <algorithm>
#include <stdexcept>

#include "kern/kern.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/par.h"
#include "util/error.h"

namespace fs::ml {

KnnClassifier::KnnClassifier(std::size_t k) : k_(k) {
  if (k == 0) throw std::invalid_argument("KnnClassifier: k must be > 0");
}

void KnnClassifier::fit(nn::Matrix features, std::vector<int> labels) {
  if (features.rows() != labels.size())
    throw std::invalid_argument("KnnClassifier::fit: size mismatch");
  if (features.rows() == 0)
    throw std::invalid_argument("KnnClassifier::fit: empty training set");
  features_ = std::move(features);
  labels_ = std::move(labels);
  panel_ = kern::RowPanel(features_.data(), features_.rows(), features_.cols());
}

double KnnClassifier::predict_proba(const double* query) const {
  if (labels_.empty())
    throw std::logic_error("KnnClassifier: predict before fit");
  const std::size_t n = features_.rows();
  const std::size_t k = std::min(k_, n);

  // Max-heap over the best-k (distance, index) pairs, kept in a flat array.
  // Distances arrive a block at a time and feed the heap in ascending row
  // order, so ties in distance still resolve by training order.
  constexpr std::size_t kBlock = 32 * kern::kRowGroup;
  double dist[kBlock];
  std::vector<std::pair<double, std::size_t>> best;
  best.reserve(k + 1);
  for (std::size_t first = 0; first < n; first += kBlock) {
    const std::size_t count = std::min(kBlock, n - first);
    kern::sq_dist_rows(panel_.from_row(first), count, panel_.dim(), query,
                       dist);
    for (std::size_t r = 0; r < count; ++r) {
      // Early exit: skip if worse than current k-th best.
      if (best.size() == k && dist[r] >= best.front().first) continue;
      best.emplace_back(dist[r], first + r);
      std::push_heap(best.begin(), best.end());
      if (best.size() > k) {
        std::pop_heap(best.begin(), best.end());
        best.pop_back();
      }
    }
  }

  std::size_t positives = 0;
  for (const auto& [d, idx] : best) positives += labels_[idx] != 0;
  return static_cast<double>(positives) / static_cast<double>(best.size());
}

std::vector<double> KnnClassifier::predict_proba(
    const nn::Matrix& queries, runtime::ExecutionContext* context) const {
  if (labels_.empty())
    throw std::logic_error("KnnClassifier: predict before fit");
  if (queries.cols() != features_.cols())
    throw std::invalid_argument("KnnClassifier: query width mismatch");
  obs::Span span("ml.knn.predict");
  span.arg("rows", static_cast<double>(queries.rows()));
  std::vector<double> out(queries.rows());
  // One packed-panel sweep per query, queries fanned out across the pool;
  // each query's heap is chunk-local, so slots never contend.
  par::ParallelOptions popts;
  popts.context = context;
  popts.what = "ml.knn.batch";
  popts.grain = par::grain_for(features_.rows() * features_.cols());
  // KNN seeds G0: without it there is nothing to degrade to, so an expired
  // deadline must not abort the batch — the pipeline truncates at the next
  // phase boundary instead. Cancellation (SIGINT) still aborts per chunk.
  popts.hard_deadline = false;
  par::parallel_for(queries.rows(), popts, [&](std::size_t r) {
    out[r] = predict_proba(queries.row(r));
  });
  // One batched add per matrix call, not one per query row.
  obs::metrics()
      .counter("ml.knn.queries_total", {}, "KNN probability queries answered")
      .add(queries.rows());
  return out;
}

std::vector<int> KnnClassifier::predict(const nn::Matrix& queries,
                                        runtime::ExecutionContext* context)
    const {
  const std::vector<double> probs = predict_proba(queries, context);
  std::vector<int> out(probs.size());
  for (std::size_t i = 0; i < probs.size(); ++i) out[i] = probs[i] >= 0.5;
  return out;
}

void KnnClassifier::save(util::BinaryWriter& writer) const {
  writer.tag("KNN0");
  writer.u64(k_);
  writer.u64(features_.rows());
  writer.u64(features_.cols());
  writer.f64_span({features_.data(), features_.size()});
  writer.i32_vector(labels_);
}

KnnClassifier KnnClassifier::load(util::BinaryReader& reader) {
  reader.expect_tag("KNN0");
  KnnClassifier knn(reader.u64());
  const std::size_t rows = reader.u64();
  const std::size_t cols = reader.u64();
  const std::vector<double> flat = reader.f64_vector();
  std::vector<int> labels = reader.i32_vector();
  if (!util::flat_matches_shape(flat.size(), rows, cols) ||
      labels.size() != rows)
    throw CorruptCheckpoint("KnnClassifier::load: corrupted record");
  nn::Matrix features(rows, cols);
  std::copy(flat.begin(), flat.end(), features.data());
  knn.fit(std::move(features), std::move(labels));
  return knn;
}

}  // namespace fs::ml
