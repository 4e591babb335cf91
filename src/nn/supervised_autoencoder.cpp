#include "nn/supervised_autoencoder.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/failpoint.h"

namespace fs::nn {

namespace {

void clip_elements(Matrix& m, double clip) {
  if (clip <= 0.0) return;
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = std::clamp(m.data()[i], -clip, clip);
}

std::vector<std::size_t> decoder_dims(const std::vector<std::size_t>& enc) {
  return {enc.rbegin(), enc.rend()};
}

std::vector<std::size_t> classifier_dims(const AutoencoderConfig& cfg) {
  std::vector<std::size_t> dims;
  dims.push_back(cfg.encoder_dims.back());
  for (std::size_t h : cfg.classifier_hidden) dims.push_back(h);
  dims.push_back(1);  // logit
  return dims;
}

Mlp make_mlp(const std::vector<std::size_t>& dims, Activation output,
             util::Rng& rng) {
  return Mlp(dims, Activation::kRelu, output, rng);
}

/// The decoder's output layer is held output-major, which the sampled
/// reconstruction steps need (the bits do not depend on the layout).
Mlp make_decoder(const std::vector<std::size_t>& encoder_dims,
                 util::Rng& rng) {
  return Mlp(decoder_dims(encoder_dims), Activation::kRelu,
             Activation::kIdentity, rng, /*output_major_top=*/true);
}

Mlp with_output_major_top(Mlp decoder) {
  decoder.mutable_layer(decoder.layer_count() - 1).make_output_major();
  return decoder;
}

}  // namespace

void sample_recon_columns(const SparseRows& batch, util::Rng& rng,
                          ReconSample& out) {
  const std::size_t width = batch.cols();
  out.covered.assign(width, 0);
  out.slot.resize(width);
  const kern::CsrView view = batch.view();
  for (std::uint64_t p = 0; p < view.offsets[view.rows]; ++p)
    out.covered[view.index[p]] = 1;
  out.cols.clear();
  out.weight.clear();
  for (std::size_t c = 0; c < width; ++c) {
    if (out.covered[c] == 0 && !(rng.uniform() < kReconSampleRate)) continue;
    out.slot[c] = static_cast<std::uint32_t>(out.cols.size());
    out.cols.push_back(static_cast<std::uint32_t>(c));
    out.weight.push_back(out.covered[c] != 0 ? 1.0
                                             : 1.0 / kReconSampleRate);
  }
}

void ReconSample::gather_target(const SparseRows& batch, Matrix& x) const {
  x.resize(batch.rows(), cols.size());
  x.fill(0.0);
  for (std::size_t r = 0; r < batch.rows(); ++r) {
    const std::uint32_t* index = batch.row_index(r);
    const double* values = batch.row_values(r);
    for (std::size_t e = 0; e < batch.row_nnz(r); ++e)
      x(r, slot[index[e]]) = values[e];
  }
}

SupervisedAutoencoder::SupervisedAutoencoder(const AutoencoderConfig& config)
    : config_(config),
      encoder_([&] {
        if (config.encoder_dims.size() < 2)
          throw std::invalid_argument(
              "SupervisedAutoencoder: encoder_dims needs >= 2 entries");
        util::Rng rng(config.seed);
        return make_mlp(config.encoder_dims, Activation::kIdentity, rng);
      }()),
      decoder_([&] {
        util::Rng rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
        return make_decoder(config.encoder_dims, rng);
      }()),
      classifier_([&] {
        util::Rng rng(config.seed ^ 0xc2b2ae3d27d4eb4fULL);
        return make_mlp(classifier_dims(config), Activation::kIdentity, rng);
      }()) {}

SupervisedAutoencoder::SupervisedAutoencoder(AutoencoderConfig config,
                                             Mlp encoder, Mlp decoder,
                                             Mlp classifier)
    : config_(std::move(config)),
      encoder_(std::move(encoder)),
      decoder_(with_output_major_top(std::move(decoder))),
      classifier_(std::move(classifier)) {}

void SupervisedAutoencoder::save(util::BinaryWriter& writer) const {
  writer.tag("SAE1");
  writer.u64(config_.encoder_dims.size());
  for (std::size_t d : config_.encoder_dims) writer.u64(d);
  writer.u64(config_.classifier_hidden.size());
  for (std::size_t d : config_.classifier_hidden) writer.u64(d);
  writer.f64(config_.learning_rate);
  writer.f64(config_.alpha);
  writer.i64(config_.epochs);
  writer.u64(config_.batch_size);
  writer.u64(config_.seed);
  writer.u64(config_.mean_reconstruction_loss ? 1 : 0);
  writer.f64(config_.gradient_clip);
  writer.i64(config_.retry.max_attempts);
  writer.f64(config_.retry_lr_backoff);
  encoder_.save(writer);
  decoder_.save(writer);
  classifier_.save(writer);
}

SupervisedAutoencoder SupervisedAutoencoder::load(
    util::BinaryReader& reader) {
  reader.expect_tag("SAE1");
  AutoencoderConfig cfg;
  cfg.encoder_dims.resize(reader.count(sizeof(std::uint64_t)));
  for (std::size_t& d : cfg.encoder_dims) d = reader.u64();
  cfg.classifier_hidden.resize(reader.count(sizeof(std::uint64_t)));
  for (std::size_t& d : cfg.classifier_hidden) d = reader.u64();
  cfg.learning_rate = reader.f64();
  cfg.alpha = reader.f64();
  cfg.epochs = static_cast<int>(reader.i64());
  cfg.batch_size = reader.u64();
  cfg.seed = reader.u64();
  cfg.mean_reconstruction_loss = reader.u64() != 0;
  cfg.gradient_clip = reader.f64();
  cfg.retry.max_attempts = static_cast<int>(reader.i64());
  cfg.retry_lr_backoff = reader.f64();
  Mlp encoder = Mlp::load(reader);
  Mlp decoder = Mlp::load(reader);
  Mlp classifier = Mlp::load(reader);
  return SupervisedAutoencoder(std::move(cfg), std::move(encoder),
                               std::move(decoder), std::move(classifier));
}

void SupervisedAutoencoder::reinitialize(std::uint64_t salt) {
  const std::uint64_t seed = config_.seed ^ (salt * 0x2545f4914f6cdd1dULL);
  {
    util::Rng rng(seed);
    encoder_ = make_mlp(config_.encoder_dims, Activation::kIdentity, rng);
  }
  {
    util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    decoder_ = make_decoder(config_.encoder_dims, rng);
  }
  {
    util::Rng rng(seed ^ 0xc2b2ae3d27d4eb4fULL);
    classifier_ = make_mlp(classifier_dims(config_), Activation::kIdentity,
                           rng);
  }
}

std::vector<EpochStats> SupervisedAutoencoder::train(
    const Matrix& inputs, const std::vector<int>& labels) {
  std::vector<std::size_t> rows(inputs.rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  return train(SparseRows::from_dense(inputs), rows, labels);
}

std::vector<EpochStats> SupervisedAutoencoder::train(
    const SparseRows& inputs, const std::vector<std::size_t>& rows,
    const std::vector<int>& labels) {
  if (rows.size() != labels.size())
    throw std::invalid_argument("train: inputs/labels size mismatch");
  if (inputs.cols() != encoder_.in_dim())
    throw std::invalid_argument("train: input width != encoder input dim");
  if (rows.empty())
    throw std::invalid_argument("train: empty training set");
  for (std::size_t r : rows)
    if (r >= inputs.rows())
      throw std::invalid_argument("train: row index past the input");

  double learning_rate = config_.learning_rate;
  runtime::Retrier retrier(config_.retry);
  while (true) {
    try {
      return train_once(inputs, rows, labels, learning_rate);
    } catch (const NumericError& e) {
      obs::metrics()
          .counter("nn.ae.divergence_retries_total", {},
                   "autoencoder restarts after numeric divergence")
          .add(1);
      if (!retrier.retry())
        throw ConvergenceError(
            std::string("SupervisedAutoencoder: training diverged after ") +
            std::to_string(retrier.failures()) + " attempts (" + e.what() +
            ")");
      learning_rate *= config_.retry_lr_backoff;
      if (config_.diagnostics != nullptr)
        config_.diagnostics->report(
            util::Severity::kWarning, ErrorCode::kNumeric, "autoencoder",
            std::string("divergent attempt ") +
                std::to_string(retrier.failures()) + " (" + e.what() +
                "); reinitializing with learning rate " +
                std::to_string(learning_rate));
      // Fresh weights: NaNs may already be inside the parameters.
      reinitialize(static_cast<std::uint64_t>(retrier.failures()));
    }
  }
}

std::vector<EpochStats> SupervisedAutoencoder::train_once(
    const SparseRows& inputs, const std::vector<std::size_t>& rows,
    const std::vector<int>& labels, double learning_rate) {
  // Both streams restart with every attempt, so a retry's draws do not
  // depend on how far the diverged attempt got.
  util::Rng shuffle_rng(config_.seed ^ 0xa5a5a5a5ULL);
  util::Rng sample_rng(config_.seed ^ 0x5a3c96e1d2b4f087ULL);
  std::vector<std::size_t> order(rows.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<EpochStats> history;
  const double elem_norm =
      config_.mean_reconstruction_loss
          ? 1.0 / static_cast<double>(inputs.cols())
          : 1.0;

  // Per-batch scratch, hoisted so steady-state iterations reuse capacity
  // instead of allocating: batch index lists, the sparse batch, its
  // sampled output columns and their dense reconstruction target, and the
  // two loss gradients. Forward/backward activations live inside the Mlps.
  std::vector<std::size_t> batch;
  std::vector<std::size_t> batch_rows;
  SparseRows x_sparse;
  ReconSample sample;
  Matrix x;
  Matrix d_recon;
  Matrix d_logit;
  // The sampled width changes every batch: room for the widest batch,
  // made once, keeps the target and its gradient from reallocating.
  const std::size_t widest = config_.batch_size * inputs.cols();
  x.reserve(widest);
  d_recon.reserve(widest);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    if (config_.context != nullptr) {
      config_.context->throw_if_cancelled("nn.train");
      if (config_.context->deadline_expired()) {
        // Truncating at an epoch boundary keeps a usable (if under-trained)
        // model — degrade instead of throwing away the completed epochs.
        if (config_.diagnostics != nullptr)
          config_.diagnostics->report(
              util::Severity::kWarning, ErrorCode::kBudget, "autoencoder",
              "training truncated at epoch " + std::to_string(epoch) + "/" +
                  std::to_string(config_.epochs) + " (deadline exceeded)");
        break;
      }
    }
    obs::Span epoch_span("nn.ae.epoch");
    epoch_span.arg("epoch", static_cast<double>(epoch));
    shuffle_rng.shuffle(order);
    EpochStats stats;
    std::size_t batches = 0;
    // Squared gradient magnitude over the epoch; only computed when the
    // metrics registry is live so the default training path stays untouched.
    const bool want_grad_norm = obs::metrics_enabled();
    double grad_sq = 0.0;
    const auto squared_sum = [](const Matrix& m) {
      double s = 0.0;
      for (std::size_t i = 0; i < m.size(); ++i)
        s += m.data()[i] * m.data()[i];
      return s;
    };

    for (std::size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const std::size_t end =
          std::min(order.size(), start + config_.batch_size);
      batch.assign(order.begin() + start, order.begin() + end);
      const auto n = static_cast<double>(batch.size());

      batch_rows.clear();
      for (std::size_t i : batch) batch_rows.push_back(rows[i]);
      inputs.gather_rows_into(batch_rows, x_sparse);
      sample_recon_columns(x_sparse, sample_rng, sample);
      sample.gather_target(x_sparse, x);
      stats.recon_cells += n * static_cast<double>(sample.cols.size());
      stats.recon_cols += static_cast<double>(sample.cols.size());

      // ---- Forward through all three networks. ----
      // References into the networks' layer caches; valid until the next
      // forward on the same network. The decoder computes only the
      // sampled output columns.
      const Matrix& code = encoder_.forward(x_sparse);
      const Matrix& recon = decoder_.forward_sampled(code, sample.cols);
      const Matrix& logit = classifier_.forward(code);

      // ---- L_auto step (Algorithm 1 lines 11-14): update A with beta. ----
      // The sampled columns' squared errors and gradients carry their
      // weights (exactly 1 for every column some row covers).
      d_recon = recon;
      d_recon -= x;
      const double grad_scale = 2.0 / n * elem_norm;
      double squared_error = 0.0;
      for (std::size_t r = 0; r < d_recon.rows(); ++r)
        for (std::size_t j = 0; j < d_recon.cols(); ++j) {
          double& d = d_recon(r, j);
          squared_error += sample.weight[j] * (d * d);
          d = d * grad_scale * sample.weight[j];
        }
      const double batch_recon_loss = util::failpoint::corrupt(
          "nn.train.nan", squared_error / n * elem_norm);
      stats.reconstruction_loss += batch_recon_loss;
      if (want_grad_norm) grad_sq += squared_sum(d_recon);
      clip_elements(d_recon, config_.gradient_clip);
      const Matrix& d_code_auto = decoder_.backward(d_recon);
      // Nothing reads dL/dx, so the encoder's bottom input-gradient GEMM
      // is skipped outright.
      encoder_.backward(d_code_auto, /*need_input_grad=*/false);
      decoder_.apply_gradients(learning_rate);
      encoder_.apply_gradients(learning_rate);

      // ---- L_cla step for the classifier (lines 15-18). ----
      // The head emits a logit; BCE-after-sigmoid gives the stable gradient
      // (sigmoid(logit) - y) / n.
      d_logit.resize(logit.rows(), 1);
      double batch_cla_loss = 0.0;
      for (std::size_t r = 0; r < logit.rows(); ++r) {
        const double p = 1.0 / (1.0 + std::exp(-logit(r, 0)));
        const double y = static_cast<double>(labels[batch[r]]);
        const double p_safe = std::clamp(p, 1e-12, 1.0 - 1e-12);
        batch_cla_loss +=
            -(y * std::log(p_safe) + (1.0 - y) * std::log(1.0 - p_safe)) / n;
        d_logit(r, 0) = (p - y) / n;
      }
      stats.classification_loss += batch_cla_loss;
      if (want_grad_norm) grad_sq += squared_sum(d_logit);
      clip_elements(d_logit, config_.gradient_clip);
      const Matrix& d_code_cla = classifier_.backward(d_logit);
      classifier_.apply_gradients(learning_rate);

      // ---- L_cla step for the encoder with alpha*beta (lines 19-22). ----
      encoder_.backward(d_code_cla, /*need_input_grad=*/false);
      encoder_.apply_gradients(config_.alpha * learning_rate);

      if (!std::isfinite(batch_recon_loss) || !std::isfinite(batch_cla_loss))
        throw NumericError(
            "SupervisedAutoencoder: non-finite loss at epoch " +
            std::to_string(epoch) + ", batch " + std::to_string(batches));

      ++batches;
    }

    if (batches > 0) {
      stats.reconstruction_loss /= static_cast<double>(batches);
      stats.classification_loss /= static_cast<double>(batches);
      stats.recon_cols /= static_cast<double>(batches);
    }
    epoch_span.arg("recon_loss", stats.reconstruction_loss);
    epoch_span.arg("cla_loss", stats.classification_loss);
    obs::tracer().counter("nn.ae.recon_loss", stats.reconstruction_loss);
    obs::tracer().counter("nn.ae.cla_loss", stats.classification_loss);
    if (want_grad_norm) {
      const double grad_norm = std::sqrt(grad_sq);
      obs::tracer().counter("nn.ae.grad_norm", grad_norm);
      obs::MetricsRegistry& reg = obs::metrics();
      reg.gauge("nn.ae.recon_loss", {},
                "reconstruction loss of the latest epoch")
          .set(stats.reconstruction_loss);
      reg.gauge("nn.ae.cla_loss", {},
                "classification loss of the latest epoch")
          .set(stats.classification_loss);
      reg.gauge("nn.ae.grad_norm", {},
                "pre-clip gradient norm of the latest epoch")
          .set(grad_norm);
      reg.counter("nn.ae.epochs_total", {}, "autoencoder epochs trained")
          .add(1);
      reg.counter("nn.ae.batches_total", {},
                  "autoencoder mini-batches processed")
          .add(batches);
    }
    history.push_back(stats);
  }
  return history;
}

double SupervisedAutoencoder::train_flop_per_epoch(
    std::size_t rows, std::size_t nnz, double recon_cells) const {
  const auto weights = [](const Mlp& mlp) {
    double sum = 0.0;
    for (std::size_t i = 0; i < mlp.layer_count(); ++i) {
      const Dense& layer = mlp.layer(i);
      sum += static_cast<double>(layer.in_dim() * layer.out_dim());
    }
    return sum;
  };
  const Dense& bottom = encoder_.layer(0);
  // The decoder mirrors the encoder, so one weight sum serves both: 10
  // FLOPs per encoder weight (forward, two weight gradients, two input
  // gradients) plus 6 per decoder weight. The bottom layer skips both
  // input gradients and pays its other 6 per non-zero input instead; the
  // decoder's output layer, as wide as the bottom layer, pays its 6 per
  // reconstructed cell.
  const double width = static_cast<double>(bottom.out_dim());
  const double dense_per_row =
      16.0 * weights(encoder_) + 6.0 * weights(classifier_) -
      16.0 * static_cast<double>(bottom.in_dim()) * width;
  return dense_per_row * static_cast<double>(rows) +
         6.0 * static_cast<double>(nnz) * width +
         6.0 * recon_cells * width;
}

Matrix SupervisedAutoencoder::encode(const SparseRows& inputs) const {
  return encoder_.infer(inputs);
}

Matrix SupervisedAutoencoder::encode(
    const SparseRows& inputs, const std::vector<std::size_t>& rows) const {
  return encoder_.infer(inputs, rows);
}

Matrix SupervisedAutoencoder::encode(const Matrix& inputs) const {
  return encode(SparseRows::from_dense(inputs));
}

std::vector<double> SupervisedAutoencoder::predict_proba(
    const Matrix& inputs) const {
  const Matrix logits = classifier_.infer(encode(inputs));
  std::vector<double> probs(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r)
    probs[r] = 1.0 / (1.0 + std::exp(-logits(r, 0)));
  return probs;
}

Matrix SupervisedAutoencoder::reconstruct(const Matrix& inputs) const {
  return decoder_.infer(encode(inputs));
}

}  // namespace fs::nn
