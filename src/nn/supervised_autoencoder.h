// Supervised autoencoder (paper Section III-B.2/3, Algorithm 1).
//
// An encoder compresses a JOC into a d-dimensional presence-proximity
// feature; a decoder reconstructs the input (L_auto); a classification head
// on the code predicts friendship (L_cla). Training follows Algorithm 1's
// sequential update scheme: per batch, the autoencoder takes a gradient step
// on L_auto, the classifier head takes a step on L_cla, and the encoder
// takes an additional alpha-scaled step on L_cla — so the code stays both
// reconstructive and discriminative.
//
// L_auto is trained by reconstruction sampling (Dauphin, Glorot & Bengio,
// "Large-Scale Learning of Embeddings with Reconstruction Sampling", ICML
// 2011). A JOC row is ~1 % non-zero, so reconstructing every cell made the
// decoder's output layer most of the training cost. Each mini-batch's loss
// and gradient instead cover every output column that is non-zero in some
// row of the batch, at weight 1, and each other column with probability
// kReconSampleRate, at weight 1 / kReconSampleRate: an unbiased estimate
// of the full loss and gradient. A batch whose rows cover every column
// trains exactly as the full loss would.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layers.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/runtime.h"

namespace fs::nn {

/// The probability with which a mini-batch's reconstruction loss keeps an
/// output column that is zero in every row of the batch.
inline constexpr double kReconSampleRate = 0.02;

/// The output columns one mini-batch reconstructs, with their loss weights.
struct ReconSample {
  std::vector<std::uint32_t> cols;  // strictly ascending
  std::vector<double> weight;       // 1, or 1 / kReconSampleRate
  /// slot[c] is c's position in cols, for every c in cols (scratch
  /// otherwise), and covered[c] is 1 when some batch row holds c.
  std::vector<std::uint32_t> slot;
  std::vector<std::uint8_t> covered;

  /// The batch's values at the sampled columns: x is rows x cols.size().
  void gather_target(const SparseRows& batch, Matrix& x) const;
};

/// Fills `out` for one mini-batch: every column non-zero in some row of
/// `batch` at weight 1, and each other column, tested in ascending order
/// with one rng.uniform() draw, at weight 1 / kReconSampleRate when the
/// draw falls below kReconSampleRate. The draws are serial, so the sample
/// depends only on the batch and the stream.
void sample_recon_columns(const SparseRows& batch, util::Rng& rng,
                          ReconSample& out);

struct AutoencoderConfig {
  /// Encoder layer widths: {input, ..., d}. The decoder mirrors this in the
  /// opposite orientation (paper Sec III-B.2). Must have >= 2 entries.
  std::vector<std::size_t> encoder_dims;

  /// Classifier head widths after the code layer: {h...}; the final logit
  /// layer (width 1) is appended automatically.
  std::vector<std::size_t> classifier_hidden = {32};

  double learning_rate = 0.005;  // paper's beta
  double alpha = 1.0;            // loss balance weight
  int epochs = 20;               // paper's m
  std::size_t batch_size = 16;   // paper's n
  std::uint64_t seed = 7;

  /// The paper's L_auto sums squared error over all cuboid cells; we use the
  /// per-element mean instead so the gradient scale is independent of the
  /// cuboid size (JOC dimensionality varies with sigma/tau). This changes
  /// only the effective learning-rate ratio between the losses, not the
  /// optimum.
  bool mean_reconstruction_loss = true;

  // ---- Numeric guards (fault tolerance, not part of Algorithm 1) ----
  /// Per-element cap on loss gradients before backprop; 0 disables.
  double gradient_clip = 5.0;
  /// Retry budget for diverging runs (NaN/Inf loss): each failed attempt
  /// reinitializes the weights and retries under this policy's backoff.
  /// max_attempts counts the first attempt, so the default allows 1 retry.
  fs::runtime::RetryPolicy retry = divergence_retry_defaults();
  /// Learning-rate multiplier applied on each divergence retry (the
  /// domain-specific part of "backing off" a trainer, on top of the
  /// policy's wall-clock backoff).
  double retry_lr_backoff = 0.5;
  /// Optional sink for divergence/retry reports (not serialized).
  fs::util::Diagnostics* diagnostics = nullptr;
  /// Optional governance: cancellation is checked and the deadline enforced
  /// (by truncating at an epoch boundary) during training. Not serialized.
  fs::runtime::ExecutionContext* context = nullptr;

  static fs::runtime::RetryPolicy divergence_retry_defaults() {
    fs::runtime::RetryPolicy policy;
    policy.max_attempts = 2;
    policy.backoff_ms = 0.0;  // divergence retries burn no wall-clock
    return policy;
  }
};

struct EpochStats {
  /// Mean over batches of the sampled estimate of L_auto.
  double reconstruction_loss = 0.0;
  double classification_loss = 0.0;
  /// Output cells reconstructed: the sum over batches of rows times
  /// sampled columns.
  double recon_cells = 0.0;
  /// Mean sampled output columns per batch.
  double recon_cols = 0.0;
};

/// Joint autoencoder + classifier (the paper's A and C).
class SupervisedAutoencoder {
 public:
  explicit SupervisedAutoencoder(const AutoencoderConfig& config);

  /// Trains on the rows `rows` of the JOC store `inputs` (one flattened
  /// cuboid per row), labels[i] belonging to rows[i]. Returns per-epoch
  /// losses. The bottom encoder layer reads each mini-batch sparse; only
  /// the reconstruction target is densified, one batch at a time.
  ///
  /// Numeric robustness: gradients are clipped per element; a NaN/Inf loss
  /// aborts the attempt, and training restarts with fresh weights and a
  /// backed-off learning rate under config.retry. Exhausting the retry
  /// budget throws fs::ConvergenceError; each retry is reported into
  /// config.diagnostics when set.
  ///
  /// Governance (config.context): cancellation throws fs::CancelledError at
  /// the next epoch boundary; an expired deadline truncates training there
  /// instead — the partially trained model is kept (graceful degradation)
  /// and the truncation is reported into config.diagnostics.
  std::vector<EpochStats> train(const SparseRows& inputs,
                                const std::vector<std::size_t>& rows,
                                const std::vector<int>& labels);
  /// Dense adapter: compresses `inputs` and trains on every row.
  std::vector<EpochStats> train(const Matrix& inputs,
                                const std::vector<int>& labels);

  /// Presence-proximity features: the code-layer output h^(R), of the
  /// given rows of a JOC store (every row without `rows`), read sparse.
  Matrix encode(const SparseRows& inputs) const;
  Matrix encode(const SparseRows& inputs,
                const std::vector<std::size_t>& rows) const;
  /// Dense adapter onto the sparse encode.
  Matrix encode(const Matrix& inputs) const;

  /// Classifier probability per row (sigmoid of the head's logit).
  std::vector<double> predict_proba(const Matrix& inputs) const;

  /// Reconstruction of the input through the full autoencoder.
  Matrix reconstruct(const Matrix& inputs) const;

  std::size_t input_dim() const { return encoder_.in_dim(); }
  std::size_t code_dim() const { return encoder_.out_dim(); }

  /// GEMM FLOPs (a multiply-add counts 2) one training epoch costs over
  /// `rows` rows whose inputs hold `nnz` non-zeros in all and whose
  /// batches reconstruct `recon_cells` output cells (EpochStats): a
  /// forward pass through encoder, decoder and head, the decoder and head
  /// backward with input gradients, and two encoder backward passes
  /// (L_auto, then alpha * L_cla) that skip the bottom layer's input
  /// gradient. Per row, with enc and head the summed weight counts of
  /// encoder and head, bottom the first encoder layer's and width its
  /// output width: 16 enc + 6 head - 16 bottom dense FLOPs; plus the
  /// bottom layer's sparse forward and two weight steps at 6 FLOPs per
  /// non-zero input and output unit (6 nnz width over the epoch); plus the
  /// decoder's output layer at 6 FLOPs per reconstructed cell and input
  /// unit (6 recon_cells width). With every cell reconstructed
  /// (recon_cells = rows x input width) that term is 6 bottom per row.
  /// Bias, activation and loss work is left out.
  double train_flop_per_epoch(std::size_t rows, std::size_t nnz,
                              double recon_cells) const;

  const AutoencoderConfig& config() const { return config_; }

  /// Serializes the trained networks and config.
  void save(util::BinaryWriter& writer) const;
  static SupervisedAutoencoder load(util::BinaryReader& reader);

 private:
  SupervisedAutoencoder(AutoencoderConfig config, Mlp encoder, Mlp decoder,
                        Mlp classifier);

  /// One full training attempt; throws fs::NumericError on a non-finite
  /// loss.
  std::vector<EpochStats> train_once(const SparseRows& inputs,
                                     const std::vector<std::size_t>& rows,
                                     const std::vector<int>& labels,
                                     double learning_rate);

  /// Re-draws all weights (salted seed) for a divergence retry.
  void reinitialize(std::uint64_t salt);

  AutoencoderConfig config_;
  Mlp encoder_;
  Mlp decoder_;
  Mlp classifier_;  // code -> hidden -> logit
};

}  // namespace fs::nn
