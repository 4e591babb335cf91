#include "core/presence.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fs::core {

std::vector<std::size_t> make_encoder_dims(
    std::size_t input_dim, const PresenceModelConfig& config) {
  if (input_dim <= config.feature_dim)
    throw std::invalid_argument(
        "make_encoder_dims: input not larger than feature dim");
  std::vector<std::size_t> dims{input_dim};
  std::size_t width = input_dim;
  for (int layer = 0; layer < config.max_hidden_layers; ++layer) {
    width /= 2;
    // Keep halving only while the layer stays meaningfully wider than the
    // code; otherwise the extra layer adds depth without compression.
    if (width <= config.feature_dim * 2) break;
    dims.push_back(std::min(width, config.max_hidden_width));
  }
  dims.push_back(config.feature_dim);
  return dims;
}

PresenceModel::PresenceModel(const PresenceModelConfig& config)
    : config_(config), knn_(config.knn_k) {
  if (config.feature_dim == 0)
    throw std::invalid_argument("PresenceModel: feature_dim must be > 0");
}

namespace {

/// Bytes of the encoder's and the mirrored decoder's weights and biases.
std::size_t autoencoder_bytes(const std::vector<std::size_t>& dims) {
  std::size_t doubles = 0;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i)
    doubles += 2 * dims[i] * dims[i + 1] + dims[i] + dims[i + 1];
  return doubles * sizeof(double);
}

}  // namespace

void PresenceModel::train(const nn::Matrix& jocs,
                          const std::vector<int>& labels) {
  std::vector<std::size_t> rows(jocs.rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  train(nn::SparseRows::from_dense(jocs), rows, labels);
}

void PresenceModel::train(const nn::SparseRows& jocs,
                          const std::vector<std::size_t>& rows,
                          const std::vector<int>& labels) {
  if (rows.size() != labels.size())
    throw std::invalid_argument("PresenceModel::train: size mismatch");
  if (rows.empty())
    throw std::invalid_argument("PresenceModel::train: empty training set");
  FS_SPAN("core.presence.train");

  nn::AutoencoderConfig ae;
  ae.encoder_dims = make_encoder_dims(jocs.cols(), config_);
  ae.learning_rate = config_.learning_rate;
  ae.alpha = config_.alpha;
  ae.epochs = config_.epochs;
  ae.batch_size = config_.batch_size;
  ae.seed = config_.seed;
  ae.diagnostics = config_.diagnostics;
  ae.context = config_.context;
  // The weights grow with the JOC width (I * J * 3): a tiny tau makes
  // them the run's largest allocation, so they are charged before they
  // exist (after releasing an earlier training's charge).
  weight_charge_.reset();
  weight_charge_ = std::make_shared<runtime::MemoryCharge>(
      config_.context, autoencoder_bytes(ae.encoder_dims),
      "core.presence.weights");
  autoencoder_.emplace(ae);

  // "A small number of raw JOC samples" trains the autoencoder; subsample
  // deterministically and stratified if the corpus is larger.
  obs::Span ae_span("core.presence.autoencoder");
  std::vector<std::size_t> ae_rows = rows;
  std::vector<int> ae_labels = labels;
  if (rows.size() > config_.max_autoencoder_rows) {
    util::Rng rng(config_.seed ^ 0xfeedULL);
    std::vector<std::size_t> pos, neg;
    for (std::size_t i = 0; i < labels.size(); ++i)
      (labels[i] != 0 ? pos : neg).push_back(i);
    rng.shuffle(pos);
    rng.shuffle(neg);
    const std::size_t half = config_.max_autoencoder_rows / 2;
    std::vector<std::size_t> chosen;
    for (std::size_t i = 0; i < std::min(half, pos.size()); ++i)
      chosen.push_back(pos[i]);
    for (std::size_t i = 0; i < std::min(half, neg.size()); ++i)
      chosen.push_back(neg[i]);
    rng.shuffle(chosen);
    ae_rows.clear();
    ae_labels.clear();
    for (std::size_t i : chosen) {
      ae_rows.push_back(rows[i]);
      ae_labels.push_back(labels[i]);
    }
  }
  const std::vector<nn::EpochStats> history =
      autoencoder_->train(jocs, ae_rows, ae_labels);
  // Throughput in the span tree: GEMM FLOPs over the epochs actually
  // trained (a deadline may truncate them), the bottom layer counted by
  // the non-zeros it multiplies and the decoder's output layer by the
  // cells each epoch's reconstruction sampling kept.
  std::size_t nnz = 0;
  for (std::size_t r : ae_rows) nnz += jocs.row_nnz(r);
  double flop = 0.0;
  double recon_cols = 0.0;
  for (const nn::EpochStats& epoch : history) {
    flop += autoencoder_->train_flop_per_epoch(ae_rows.size(), nnz,
                                               epoch.recon_cells);
    recon_cols += epoch.recon_cols;
  }
  if (!history.empty()) recon_cols /= static_cast<double>(history.size());
  ae_span.arg("rows", static_cast<double>(ae_rows.size()));
  ae_span.arg("epochs", static_cast<double>(history.size()));
  ae_span.arg("flop", flop);
  ae_span.arg("recon_cols", recon_cols);
  obs::metrics()
      .counter("nn.ae.flops_total", {},
               "autoencoder training GEMM FLOPs (widths, non-zeros and "
               "sampled output columns)")
      .add(static_cast<std::uint64_t>(flop));
  ae_span.end();

  // KNN stage over the code of the training corpus (capped: query cost is
  // linear in the reference-set size).
  obs::Span knn_span("core.presence.knn_fit");
  const nn::Matrix code = autoencoder_->encode(jocs, rows);
  const nn::Matrix scaled = code_scaler_.fit_transform(code);
  if (scaled.rows() > config_.max_knn_rows) {
    util::Rng rng(config_.seed ^ 0x6b6eULL);
    std::vector<std::size_t> picks(scaled.rows());
    for (std::size_t i = 0; i < picks.size(); ++i) picks[i] = i;
    rng.shuffle(picks);
    picks.resize(config_.max_knn_rows);
    std::vector<int> sub_labels;
    sub_labels.reserve(picks.size());
    for (std::size_t i : picks) sub_labels.push_back(labels[i]);
    knn_.fit(scaled.gather_rows(picks), std::move(sub_labels));
  } else {
    knn_.fit(scaled, labels);
  }
  trained_ = true;
}

nn::Matrix PresenceModel::encode(const nn::SparseRows& jocs) const {
  if (!trained_) throw std::logic_error("PresenceModel: encode before train");
  FS_SPAN("core.presence.encode");
  return autoencoder_->encode(jocs);
}

nn::Matrix PresenceModel::encode(const nn::Matrix& jocs) const {
  return encode(nn::SparseRows::from_dense(jocs));
}

std::vector<double> PresenceModel::predict_proba(
    const nn::Matrix& jocs) const {
  return predict_proba_encoded(encode(jocs));
}

std::vector<double> PresenceModel::predict_proba_encoded(
    const nn::Matrix& features) const {
  if (!trained_)
    throw std::logic_error("PresenceModel: predict before train");
  return knn_.predict_proba(code_scaler_.transform(features),
                            config_.context);
}

std::vector<int> PresenceModel::predict(const nn::Matrix& jocs) const {
  const std::vector<double> probs = predict_proba(jocs);
  std::vector<int> out(probs.size());
  for (std::size_t i = 0; i < probs.size(); ++i) out[i] = probs[i] >= 0.5;
  return out;
}

void PresenceModel::save(util::BinaryWriter& writer) const {
  if (!trained_) throw std::logic_error("PresenceModel::save: not trained");
  writer.tag("PRES");
  writer.u64(config_.feature_dim);
  writer.i64(config_.max_hidden_layers);
  writer.u64(config_.max_hidden_width);
  writer.f64(config_.learning_rate);
  writer.f64(config_.alpha);
  writer.i64(config_.epochs);
  writer.u64(config_.batch_size);
  writer.u64(config_.knn_k);
  writer.u64(config_.max_autoencoder_rows);
  writer.u64(config_.max_knn_rows);
  writer.u64(config_.seed);
  autoencoder_->save(writer);
  code_scaler_.save(writer);
  knn_.save(writer);
}

PresenceModel PresenceModel::load(util::BinaryReader& reader) {
  reader.expect_tag("PRES");
  PresenceModelConfig cfg;
  cfg.feature_dim = reader.u64();
  cfg.max_hidden_layers = static_cast<int>(reader.i64());
  cfg.max_hidden_width = reader.u64();
  cfg.learning_rate = reader.f64();
  cfg.alpha = reader.f64();
  cfg.epochs = static_cast<int>(reader.i64());
  cfg.batch_size = reader.u64();
  cfg.knn_k = reader.u64();
  cfg.max_autoencoder_rows = reader.u64();
  cfg.max_knn_rows = reader.u64();
  cfg.seed = reader.u64();
  PresenceModel model(cfg);
  model.autoencoder_.emplace(nn::SupervisedAutoencoder::load(reader));
  model.code_scaler_ = ml::StandardScaler::load(reader);
  model.knn_ = ml::KnnClassifier::load(reader);
  model.trained_ = true;
  return model;
}

}  // namespace fs::core
