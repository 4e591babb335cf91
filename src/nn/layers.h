// Fully-connected layers and multi-layer perceptrons with an explicit
// backward / apply split, so Algorithm 1's sequential two-loss update can
// be expressed faithfully (compute the gradients at the forward point, then
// apply).
//
// Hot-path shape: forward runs one fused GEMM (bias + activation applied
// in the kernel's tile writeback — no second pass over the batch), caches
// the layer *output*, and derives the activation gradient from it in
// backward (ReLU: out > 0; sigmoid: s(1-s); tanh: 1-t² — identical values
// to the pre-activation forms, one cached matrix instead of two). The
// weight gradient is never stored: backward keeps dL/d(pre-activation),
// and apply_gradients runs the GEMM dPre^T . input with the SGD step fused
// into its writeback (kern's kStep epilogue), bit-identical to "gradient
// into a zeroed matrix, then w -= lr * g". All per-batch buffers are
// reused members, so steady-state training allocates nothing.
//
// Weights are stored input-major (in_dim x out_dim) by default, so the
// weights one input feeds are one contiguous row. The autoencoder's
// bottom layer reads sparse JOC rows (nn::SparseRows): its forward and
// both weight steps run the sparse kernels, which touch only the weight
// rows of inputs present in the batch and return the dense GEMM's bits.
// The decoder's output layer is held output-major instead (out_dim x
// in_dim, the serialized DNSE record's own order), so the weights of one
// output are one contiguous row: its sampled forward, input gradient and
// step read and write only the rows of the outputs a batch reconstructs,
// in place, through the GEMM's row maps.
// The GEMM variants return the same bits whichever way an operand is
// stored, so the layout never changes a result.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/matrix.h"
#include "nn/sparse.h"
#include "util/binary_io.h"

namespace fs::nn {

enum class Activation { kIdentity, kRelu, kSigmoid, kTanh };

/// Applies the activation / its derivative (as a function of the
/// pre-activation for ReLU, of the output for sigmoid/tanh).
double activate(Activation act, double x);

/// One dense layer: y = act(W x + b), batched over matrix rows.
class Dense {
 public:
  /// He-initialized weights, held output-major when `output_major`.
  Dense(std::size_t in_dim, std::size_t out_dim, Activation act,
        util::Rng& rng, bool output_major = false);

  /// Reconstructs a layer from trained parameters: `weights` is
  /// in_dim x out_dim (input-major), `bias` out_dim long.
  Dense(Matrix weights, std::vector<double> bias, Activation act);

  std::size_t in_dim() const {
    return output_major_ ? weights_.cols() : weights_.rows();
  }
  std::size_t out_dim() const {
    return output_major_ ? weights_.rows() : weights_.cols();
  }
  Activation activation() const { return activation_; }

  /// Re-lays the weights out out_dim x in_dim (output-major), which
  /// forward_sampled needs; sparse input then is no longer accepted.
  /// Every other call returns the same bits in either layout, and the
  /// DNSE record is the same bytes.
  void make_output_major();

  /// Forward pass; caches input and output for backward(). The returned
  /// reference is into this layer and stays valid until the next forward.
  /// Throws std::logic_error while a backward() step is still pending: the
  /// step reads the cached input.
  const Matrix& forward(const Matrix& input);
  /// forward() on sparse input rows; the pending step is then sparse too.
  /// Needs an input-major layer.
  const Matrix& forward(const SparseRows& input);
  /// forward() of only the output columns `cols` (strictly ascending, each
  /// below out_dim), returning rows x cols.size(). The pending backward and
  /// step then cover exactly those outputs: backward takes dL/d(those
  /// outputs), and the step reads and writes only their weights and
  /// biases. Needs an output-major layer. With every column listed, the
  /// output, the input gradient and the step are forward()'s bits.
  const Matrix& forward_sampled(const Matrix& input,
                                std::span<const std::uint32_t> cols);

  /// Forward without caching (inference), into `out` (capacity reused).
  void infer_into(const Matrix& input, Matrix& out) const;
  void infer_into(const SparseRows& input, Matrix& out) const;
  Matrix infer(const Matrix& input) const;

  /// Computes the weight/bias gradients of dL/d(output), pending until
  /// apply_gradients() or clear_gradients(), and returns dL/d(input).
  /// Requires a preceding forward() on the same batch and no pending step
  /// (std::logic_error otherwise).
  Matrix backward(const Matrix& d_output);

  /// backward() with the input gradient written to *d_input (reusing its
  /// capacity), or skipped entirely when d_input is null — the bottom
  /// layer of a network whose input gradient nobody reads saves a GEMM.
  void backward_into(const Matrix& d_output, Matrix* d_input);

  /// SGD step with the pending gradients, which it consumes; with none
  /// pending it leaves the parameters untouched.
  void apply_gradients(double learning_rate);

  /// Drops the pending gradients without applying (used when a loss term
  /// must not touch this layer).
  void clear_gradients();

  void save(util::BinaryWriter& writer) const;
  static Dense load(util::BinaryReader& reader);

  /// The stored weights: in_dim x out_dim, weights()(i, o) connecting
  /// input i to output o (out_dim x in_dim when output-major).
  const Matrix& weights() const { return weights_; }
  Matrix& mutable_weights() { return weights_; }
  const std::vector<double>& bias() const { return bias_; }

 private:
  /// Checks the input width and that no step is pending; sizes the
  /// output cache rows x width.
  void begin_forward(std::size_t rows, std::size_t cols, std::size_t width);

  Matrix weights_;  // in_dim x out_dim, or out_dim x in_dim output-major
  std::vector<double> bias_;
  Activation activation_;
  bool output_major_ = false;

  std::vector<double> grad_bias_;
  // backward() ran and its step is still to be applied or cleared.
  bool step_pending_ = false;

  // Forward caches and backward scratch (all capacity-reusing). The
  // pending weight step is cached input^T . dPre, read from the sparse
  // cache when the last forward was sparse.
  Matrix cached_input_;
  SparseRows cached_sparse_input_;
  bool sparse_input_ = false;
  Matrix cached_output_;  // post-activation
  Matrix d_pre_;
  // The last forward was forward_sampled: its output columns (the weight
  // rows the GEMMs read and step in place) and their biases gathered;
  // grad_bias_ is then indexed by position in sampled_cols_.
  bool sampled_ = false;
  std::vector<std::uint32_t> sampled_cols_;
  std::vector<double> sampled_bias_;
};

/// A plain MLP: a stack of Dense layers trained with SGD.
class Mlp {
 public:
  /// dims = {in, h1, ..., out}; `hidden` activation on all but the last
  /// layer, `output` activation on the last, which is held output-major
  /// when `output_major_top` (forward_sampled needs it).
  Mlp(const std::vector<std::size_t>& dims, Activation hidden,
      Activation output, util::Rng& rng, bool output_major_top = false);

  /// Reconstructs a network from trained layers (deserialization).
  explicit Mlp(std::vector<Dense> layers);

  /// Returns a reference into the last layer's cache, valid until the
  /// next forward — activations chain layer to layer without copies.
  const Matrix& forward(const Matrix& input);
  /// forward() with the bottom layer reading sparse rows.
  const Matrix& forward(const SparseRows& input);
  /// forward() with the top layer computing only the output columns
  /// `cols` (Dense::forward_sampled).
  const Matrix& forward_sampled(const Matrix& input,
                                std::span<const std::uint32_t> cols);
  Matrix infer(const Matrix& input) const;
  /// Inference on the given rows of a sparse store (every row without
  /// `rows`), one output row each. Runs in fixed chunks of rows over
  /// fs::par, so no dense copy of the input ever exists and the bits do
  /// not depend on the thread count.
  Matrix infer(const SparseRows& input) const;
  Matrix infer(const SparseRows& input,
               std::span<const std::size_t> rows) const;

  /// Backpropagates dL/d(output), leaving each layer's step pending; returns
  /// dL/d(input) (a reference into this network, valid until the next
  /// backward). With need_input_grad false the bottom layer's input
  /// gradient is never computed and the returned matrix is empty.
  const Matrix& backward(const Matrix& d_output,
                         bool need_input_grad = true);

  void apply_gradients(double learning_rate);
  void clear_gradients();

  std::size_t layer_count() const { return layers_.size(); }
  const Dense& layer(std::size_t i) const { return layers_.at(i); }
  Dense& mutable_layer(std::size_t i) { return layers_.at(i); }

  std::size_t in_dim() const { return layers_.front().in_dim(); }
  std::size_t out_dim() const { return layers_.back().out_dim(); }

  void save(util::BinaryWriter& writer) const;
  static Mlp load(util::BinaryReader& reader);

 private:
  std::vector<Dense> layers_;
  // d_input_[i] = dL/d(input of layer i); reused every backward pass.
  std::vector<Matrix> d_input_;
};

}  // namespace fs::nn
