#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "kern/kern.h"
#include "util/error.h"

namespace fs::nn {

double activate(Activation act, double x) {
  switch (act) {
    case Activation::kIdentity: return x;
    case Activation::kRelu: return x > 0.0 ? x : 0.0;
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
    case Activation::kTanh: return std::tanh(x);
  }
  throw std::logic_error("activate: unknown activation");
}

namespace {

/// The kernel epilogue computing act(pre + bias) for this activation.
kern::Epilogue epilogue_for(Activation act) {
  switch (act) {
    case Activation::kIdentity: return kern::Epilogue::kBias;
    case Activation::kRelu: return kern::Epilogue::kBiasRelu;
    case Activation::kSigmoid: return kern::Epilogue::kBiasSigmoid;
    case Activation::kTanh: return kern::Epilogue::kBiasTanh;
  }
  throw std::logic_error("epilogue_for: unknown activation");
}

/// Derivative with respect to pre-activation, expressed through the layer
/// OUTPUT `out = act(pre)`. Numerically identical to the pre-activation
/// forms (sigmoid'/tanh' recompute the same value the forward pass already
/// produced), but needs only one cached matrix.
double activation_grad_from_output(Activation act, double out) {
  switch (act) {
    case Activation::kIdentity: return 1.0;
    case Activation::kRelu: return out > 0.0 ? 1.0 : 0.0;
    case Activation::kSigmoid: return out * (1.0 - out);
    case Activation::kTanh: return 1.0 - out * out;
  }
  throw std::logic_error("activation_grad_from_output: unknown activation");
}

}  // namespace

Dense::Dense(std::size_t in_dim, std::size_t out_dim, Activation act,
             util::Rng& rng)
    : weights_(Matrix::he_init(out_dim, in_dim, rng)),
      bias_(out_dim, 0.0),
      activation_(act),
      grad_bias_(out_dim, 0.0) {
  if (in_dim == 0 || out_dim == 0)
    throw std::invalid_argument("Dense: zero dimension");
}

Dense::Dense(Matrix weights, std::vector<double> bias, Activation act)
    : weights_(std::move(weights)),
      bias_(std::move(bias)),
      activation_(act),
      grad_bias_(bias_.size(), 0.0) {
  if (weights_.rows() != bias_.size())
    throw std::invalid_argument("Dense: weights/bias shape mismatch");
  if (weights_.rows() == 0 || weights_.cols() == 0)
    throw std::invalid_argument("Dense: zero dimension");
}

void Dense::save(util::BinaryWriter& writer) const {
  writer.tag("DNSE");
  writer.u64(weights_.rows());
  writer.u64(weights_.cols());
  writer.u64(static_cast<std::uint64_t>(activation_));
  std::vector<double> flat(weights_.data(),
                           weights_.data() + weights_.size());
  writer.f64_vector(flat);
  writer.f64_vector(bias_);
}

Dense Dense::load(util::BinaryReader& reader) {
  reader.expect_tag("DNSE");
  const std::size_t rows = reader.u64();
  const std::size_t cols = reader.u64();
  const auto act = static_cast<Activation>(reader.u64());
  const std::vector<double> flat = reader.f64_vector();
  std::vector<double> bias = reader.f64_vector();
  if (!util::flat_matches_shape(flat.size(), rows, cols) ||
      bias.size() != rows)
    throw CorruptCheckpoint("Dense::load: corrupted record");
  Matrix weights(rows, cols);
  std::copy(flat.begin(), flat.end(), weights.data());
  return Dense(std::move(weights), std::move(bias), act);
}

const Matrix& Dense::forward(const Matrix& input) {
  if (input.cols() != in_dim())
    throw std::invalid_argument("Dense::forward: input width mismatch");
  if (step_pending_)
    throw std::logic_error("Dense::forward: a weight step is still pending");
  cached_input_ = input;  // capacity-reusing copy
  cached_output_.resize(input.rows(), out_dim());
  // One fused kernel: GEMM against W^T with bias+activation applied during
  // tile writeback — no second pass over the batch.
  kern::gemm_nt(input.rows(), out_dim(), in_dim(), input.data(),
                input.cols(), weights_.data(), weights_.cols(),
                cached_output_.data(), out_dim(), /*accumulate=*/false,
                epilogue_for(activation_), bias_.data());
  return cached_output_;
}

Matrix Dense::infer(const Matrix& input) const {
  if (input.cols() != in_dim())
    throw std::invalid_argument("Dense::infer: input width mismatch");
  Matrix out(input.rows(), out_dim());
  kern::gemm_nt(input.rows(), out_dim(), in_dim(), input.data(),
                input.cols(), weights_.data(), weights_.cols(), out.data(),
                out_dim(), /*accumulate=*/false, epilogue_for(activation_),
                bias_.data());
  return out;
}

void Dense::backward_into(const Matrix& d_output, Matrix* d_input) {
  if (cached_output_.rows() != d_output.rows() ||
      cached_output_.cols() != d_output.cols())
    throw std::logic_error("Dense::backward: no matching forward cache");
  if (step_pending_)
    throw std::logic_error("Dense::backward: a weight step is still pending");
  // dPre = dOut ∘ act'(out)
  d_pre_ = d_output;
  for (std::size_t i = 0; i < d_pre_.size(); ++i)
    d_pre_.data()[i] *=
        activation_grad_from_output(activation_, cached_output_.data()[i]);
  // The weight gradient dPre^T . input is left to apply_gradients, which
  // steps the weights by it inside the GEMM writeback.
  step_pending_ = true;
  for (std::size_t r = 0; r < d_pre_.rows(); ++r)
    for (std::size_t c = 0; c < d_pre_.cols(); ++c)
      grad_bias_[c] += d_pre_(r, c);
  // dInput = dPre * W — skipped when nobody reads it (bottom layers).
  if (d_input != nullptr) matmul_nn_into(d_pre_, weights_, *d_input);
}

Matrix Dense::backward(const Matrix& d_output) {
  Matrix d_input;
  backward_into(d_output, &d_input);
  return d_input;
}

void Dense::apply_gradients(double learning_rate) {
  if (!step_pending_) return;
  kern::gemm_tn_step(out_dim(), in_dim(), d_pre_.rows(), d_pre_.data(),
                     d_pre_.cols(), cached_input_.data(), cached_input_.cols(),
                     weights_.data(), weights_.cols(), learning_rate);
  step_pending_ = false;
  for (std::size_t c = 0; c < bias_.size(); ++c) {
    bias_[c] -= learning_rate * grad_bias_[c];
    grad_bias_[c] = 0.0;
  }
}

void Dense::clear_gradients() {
  step_pending_ = false;
  grad_bias_.assign(grad_bias_.size(), 0.0);
}

Mlp::Mlp(const std::vector<std::size_t>& dims, Activation hidden,
         Activation output, util::Rng& rng) {
  if (dims.size() < 2)
    throw std::invalid_argument("Mlp: need at least input and output dims");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool last = (i + 2 == dims.size());
    layers_.emplace_back(dims[i], dims[i + 1], last ? output : hidden, rng);
  }
  d_input_.resize(layers_.size());
}

Mlp::Mlp(std::vector<Dense> layers) : layers_(std::move(layers)) {
  if (layers_.empty())
    throw std::invalid_argument("Mlp: need at least one layer");
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i)
    if (layers_[i].out_dim() != layers_[i + 1].in_dim())
      throw std::invalid_argument("Mlp: layer dimension mismatch");
  d_input_.resize(layers_.size());
}

void Mlp::save(util::BinaryWriter& writer) const {
  writer.tag("MLP0");
  writer.u64(layers_.size());
  for (const Dense& layer : layers_) layer.save(writer);
}

Mlp Mlp::load(util::BinaryReader& reader) {
  reader.expect_tag("MLP0");
  const std::size_t count = reader.u64();
  if (count == 0 || count > 1024)
    throw CorruptCheckpoint("Mlp::load: implausible layer count");
  std::vector<Dense> layers;
  layers.reserve(count);
  for (std::size_t i = 0; i < count; ++i) layers.push_back(Dense::load(reader));
  return Mlp(std::move(layers));
}

const Matrix& Mlp::forward(const Matrix& input) {
  // Activations chain through each layer's cache; no intermediate copies
  // beyond the per-layer input cache backward() needs anyway.
  const Matrix* current = &input;
  for (Dense& layer : layers_) current = &layer.forward(*current);
  return *current;
}

Matrix Mlp::infer(const Matrix& input) const {
  Matrix current = input;
  for (const Dense& layer : layers_) current = layer.infer(current);
  return current;
}

const Matrix& Mlp::backward(const Matrix& d_output, bool need_input_grad) {
  if (!need_input_grad) d_input_[0].resize(0, 0);  // never return stale bits
  const Matrix* current = &d_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    const bool need = i > 0 || need_input_grad;
    layers_[i].backward_into(*current, need ? &d_input_[i] : nullptr);
    current = &d_input_[i];
  }
  return d_input_[0];
}

void Mlp::apply_gradients(double learning_rate) {
  for (Dense& layer : layers_) layer.apply_gradients(learning_rate);
}

void Mlp::clear_gradients() {
  for (Dense& layer : layers_) layer.clear_gradients();
}

}  // namespace fs::nn
