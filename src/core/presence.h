// Phase 1: presence-proximity feature extraction and real-world friendship
// prediction (Sections III-B.2 and III-B.3).
//
// A supervised autoencoder compresses JOCs into d-dimensional features; a
// KNN classifier over those features predicts real-world friendship and
// seeds the initial social graph G(0).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ml/knn.h"
#include "ml/scaler.h"
#include "nn/supervised_autoencoder.h"

namespace fs::core {

struct PresenceModelConfig {
  std::size_t feature_dim = 64;  // the paper's d
  /// Consecutive encoder layers halve the width (paper Sec IV-B); this caps
  /// how many halving layers are inserted between input and code.
  int max_hidden_layers = 1;
  /// Width cap on hidden encoder layers. The paper halves layer widths all
  /// the way down; at laptop scale the first halved layer can still be very
  /// wide when the quadtree is deep, so widths are clamped (a pure
  /// compute-scaling knob — the code layer and training recipe are
  /// unchanged).
  std::size_t max_hidden_width = 320;
  double learning_rate = 0.005;  // paper's default beta
  double alpha = 1.0;            // loss balance
  int epochs = 18;
  std::size_t batch_size = 16;
  std::size_t knn_k = 7;
  /// Cap on autoencoder training rows; the paper labels "a small number of
  /// raw JOC samples". Extra rows are still used for the KNN stage.
  std::size_t max_autoencoder_rows = 800;
  /// Cap on KNN reference rows (query cost is linear in this).
  std::size_t max_knn_rows = 2500;
  std::uint64_t seed = 13;
  /// Optional sink for autoencoder divergence reports (not serialized).
  fs::util::Diagnostics* diagnostics = nullptr;
  /// Optional execution governance (cancellation + deadline truncation for
  /// autoencoder training). Not serialized.
  fs::runtime::ExecutionContext* context = nullptr;
};

/// Builds the encoder layer widths for a given input size: repeated halving
/// down to the code dimension.
std::vector<std::size_t> make_encoder_dims(std::size_t input_dim,
                                           const PresenceModelConfig& config);

class PresenceModel {
 public:
  explicit PresenceModel(const PresenceModelConfig& config);

  /// Trains autoencoder + classifier on the rows `rows` of the JOC store,
  /// labels[i] belonging to rows[i], then fits the KNN stage over the
  /// learned code of ALL those rows. The encoder and decoder weights are
  /// charged against config.context's memory budget
  /// (`core.presence.weights`) before they are allocated, and stay charged
  /// while the model (or a copy of it) lives, so the context must outlive
  /// the model.
  void train(const nn::SparseRows& jocs, const std::vector<std::size_t>& rows,
             const std::vector<int>& labels);
  /// Dense adapter: compresses `jocs` and trains on every row.
  void train(const nn::Matrix& jocs, const std::vector<int>& labels);

  /// Presence-proximity features h^(R) per JOC row of the store.
  nn::Matrix encode(const nn::SparseRows& jocs) const;
  /// Dense adapter onto the sparse encode.
  nn::Matrix encode(const nn::Matrix& jocs) const;

  /// Real-world friendship probability per JOC row (KNN over the code).
  std::vector<double> predict_proba(const nn::Matrix& jocs) const;
  std::vector<int> predict(const nn::Matrix& jocs) const;

  /// KNN probability for rows that are ALREADY encoded (and unscaled).
  std::vector<double> predict_proba_encoded(const nn::Matrix& features) const;

  bool trained() const { return trained_; }
  std::size_t feature_dim() const { return config_.feature_dim; }

  /// Serializes the trained model (autoencoder, scaler, KNN stage) so an
  /// attack can be trained once and reused across targets.
  void save(util::BinaryWriter& writer) const;
  static PresenceModel load(util::BinaryReader& reader);
  const nn::SupervisedAutoencoder* autoencoder() const {
    return autoencoder_ ? &*autoencoder_ : nullptr;
  }

 private:
  PresenceModelConfig config_;
  /// The weights' budget charge, shared by copies of the model.
  std::shared_ptr<runtime::MemoryCharge> weight_charge_;
  std::optional<nn::SupervisedAutoencoder> autoencoder_;
  ml::StandardScaler code_scaler_;
  ml::KnnClassifier knn_;
  bool trained_ = false;
};

}  // namespace fs::core
