#include "nn/layers.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "kern/kern.h"
#include "par/par.h"
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

Matrix transposed(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) t(c, r) = m(r, c);
  return t;
}

/// Rows per chunk of Mlp's sparse inference: a function of nothing but
/// this constant, so the chunks are the same at every thread count.
constexpr std::size_t kInferChunkRows = 128;

}  // namespace

// he_init draws the out x in matrix row-major, the output-major layout;
// storing its transpose input-major keeps every seed's weights.
Dense::Dense(std::size_t in_dim, std::size_t out_dim, Activation act,
             util::Rng& rng, bool output_major)
    : weights_(output_major ? Matrix::he_init(out_dim, in_dim, rng)
                            : transposed(Matrix::he_init(out_dim, in_dim, rng))),
      bias_(out_dim, 0.0),
      activation_(act),
      output_major_(output_major),
      grad_bias_(out_dim, 0.0) {
  if (in_dim == 0 || out_dim == 0)
    throw std::invalid_argument("Dense: zero dimension");
}

Dense::Dense(Matrix weights, std::vector<double> bias, Activation act)
    : weights_(std::move(weights)),
      bias_(std::move(bias)),
      activation_(act),
      grad_bias_(bias_.size(), 0.0) {
  if (weights_.cols() != bias_.size())
    throw std::invalid_argument("Dense: weights/bias shape mismatch");
  if (weights_.rows() == 0 || weights_.cols() == 0)
    throw std::invalid_argument("Dense: zero dimension");
}

void Dense::make_output_major() {
  if (output_major_) return;
  weights_ = transposed(weights_);
  output_major_ = true;
}

// The DNSE record is out x in: that byte order is the checkpoint format
// and what the model digests hash.
void Dense::save(util::BinaryWriter& writer) const {
  writer.tag("DNSE");
  writer.u64(out_dim());
  writer.u64(in_dim());
  writer.u64(static_cast<std::uint64_t>(activation_));
  writer.u64(weights_.size());
  if (output_major_) {
    writer.f64_values({weights_.data(), weights_.size()});
  } else {
    // Input-major weights stream out transposed, one output row at a time
    // through a small block: the record never exists whole in memory.
    std::array<double, 256> block{};
    for (std::size_t o = 0; o < out_dim(); ++o)
      for (std::size_t i0 = 0; i0 < in_dim(); i0 += block.size()) {
        const std::size_t len = std::min(block.size(), in_dim() - i0);
        for (std::size_t i = 0; i < len; ++i) block[i] = weights_(i0 + i, o);
        writer.f64_values({block.data(), len});
      }
  }
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
  Matrix record(rows, cols);  // out x in
  std::copy(flat.begin(), flat.end(), record.data());
  return Dense(transposed(record), std::move(bias), act);
}

void Dense::begin_forward(std::size_t rows, std::size_t cols,
                          std::size_t width) {
  if (cols != in_dim())
    throw std::invalid_argument("Dense::forward: input width mismatch");
  if (step_pending_)
    throw std::logic_error("Dense::forward: a weight step is still pending");
  cached_output_.resize(rows, width);
  sampled_ = false;
}

namespace {

/// out = epilogue(input . W + bias) over every output of a dense layer,
/// W stored in x out or, output-major, out x in: one fused kernel, with
/// bias+activation applied during writeback.
void dense_forward(const Matrix& input, const Matrix& weights,
                   bool output_major, std::size_t out_dim, Activation act,
                   const double* bias, double* out) {
  const std::size_t in_dim = input.cols();
  if (output_major)
    kern::gemm_nt(input.rows(), out_dim, in_dim, input.data(), in_dim,
                  weights.data(), in_dim, out, out_dim,
                  /*accumulate=*/false, epilogue_for(act), bias);
  else
    kern::gemm_nn(input.rows(), out_dim, in_dim, input.data(), in_dim,
                  weights.data(), out_dim, out, out_dim,
                  /*accumulate=*/false, epilogue_for(act), bias);
}

}  // namespace

const Matrix& Dense::forward(const Matrix& input) {
  begin_forward(input.rows(), input.cols(), out_dim());
  cached_input_ = input;  // capacity-reusing copy
  sparse_input_ = false;
  dense_forward(input, weights_, output_major_, out_dim(), activation_,
                bias_.data(), cached_output_.data());
  return cached_output_;
}

const Matrix& Dense::forward(const SparseRows& input) {
  if (output_major_)
    throw std::logic_error("Dense::forward: sparse input needs input-major");
  begin_forward(input.rows(), input.cols(), out_dim());
  cached_sparse_input_ = input;  // capacity-reusing copy
  sparse_input_ = true;
  kern::sparse_gemm_nn(input.view(), weights_.data(), out_dim(), out_dim(),
                       cached_output_.data(), out_dim(),
                       epilogue_for(activation_), bias_.data());
  return cached_output_;
}

// The sampled outputs' weight rows are an output-major layer of their
// own, read and stepped in place through the GEMM's row maps, so the
// product, its input gradient and its step are the full layer's kernels
// on fewer output columns.
const Matrix& Dense::forward_sampled(const Matrix& input,
                                     std::span<const std::uint32_t> cols) {
  if (!output_major_)
    throw std::logic_error("Dense::forward_sampled: needs output-major");
  for (std::size_t j = 0; j < cols.size(); ++j)
    if (cols[j] >= out_dim() || (j > 0 && cols[j] <= cols[j - 1]))
      throw std::invalid_argument(
          "Dense::forward_sampled: columns must ascend below out_dim");
  // The sample's width changes every batch: room for every column, made
  // once, keeps the batch buffers from reallocating in steps.
  cached_output_.reserve(input.rows() * out_dim());
  d_pre_.reserve(input.rows() * out_dim());
  begin_forward(input.rows(), input.cols(), cols.size());
  cached_input_ = input;  // capacity-reusing copy
  sparse_input_ = false;
  sampled_cols_.assign(cols.begin(), cols.end());
  sampled_bias_.resize(cols.size());
  for (std::size_t j = 0; j < cols.size(); ++j)
    sampled_bias_[j] = bias_[cols[j]];
  sampled_ = true;
  kern::GemmCall call;
  call.m = input.rows();
  call.n = cols.size();
  call.k = in_dim();
  call.a = input.data();
  call.lda = in_dim();
  call.b = weights_.data();
  call.ldb = in_dim();
  call.b_trans = true;
  call.b_rows = sampled_cols_.data();
  call.c = cached_output_.data();
  call.ldc = cols.size();
  call.epilogue = epilogue_for(activation_);
  call.bias = sampled_bias_.data();
  kern::gemm(call);
  return cached_output_;
}

void Dense::infer_into(const Matrix& input, Matrix& out) const {
  if (input.cols() != in_dim())
    throw std::invalid_argument("Dense::infer: input width mismatch");
  out.resize(input.rows(), out_dim());
  dense_forward(input, weights_, output_major_, out_dim(), activation_,
                bias_.data(), out.data());
}

void Dense::infer_into(const SparseRows& input, Matrix& out) const {
  if (input.cols() != in_dim())
    throw std::invalid_argument("Dense::infer: input width mismatch");
  if (output_major_)
    throw std::logic_error("Dense::infer: sparse input needs input-major");
  out.resize(input.rows(), out_dim());
  kern::sparse_gemm_nn(input.view(), weights_.data(), out_dim(), out_dim(),
                       out.data(), out_dim(), epilogue_for(activation_),
                       bias_.data());
}

Matrix Dense::infer(const Matrix& input) const {
  Matrix out;
  infer_into(input, out);
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
  // A sampled step indexes grad_bias_ by position in sampled_cols_.
  for (std::size_t r = 0; r < d_pre_.rows(); ++r)
    for (std::size_t c = 0; c < d_pre_.cols(); ++c)
      grad_bias_[c] += d_pre_(r, c);
  // dInput = dPre * W^T — skipped when nobody reads it (bottom layers).
  if (d_input == nullptr) return;
  if (!output_major_) {
    matmul_nt_into(d_pre_, weights_, *d_input);
    return;
  }
  // dInput = dPre . W over the layer's (or the sampled) output rows.
  d_input->resize(d_pre_.rows(), in_dim());
  kern::GemmCall call;
  call.m = d_pre_.rows();
  call.n = in_dim();
  call.k = d_pre_.cols();
  call.a = d_pre_.data();
  call.lda = d_pre_.cols();
  call.b = weights_.data();
  call.ldb = in_dim();
  call.b_rows = sampled_ ? sampled_cols_.data() : nullptr;
  call.c = d_input->data();
  call.ldc = in_dim();
  kern::gemm(call);
}

Matrix Dense::backward(const Matrix& d_output) {
  Matrix d_input;
  backward_into(d_output, &d_input);
  return d_input;
}

void Dense::apply_gradients(double learning_rate) {
  if (!step_pending_) return;
  // W -= lr * input^T . dPre; the sparse step touches only the weight rows
  // of inputs present in the batch (the others would step by zero).
  step_pending_ = false;
  if (sampled_) {
    // W_S -= lr * dPre^T . input, in place on the sampled outputs' rows.
    kern::GemmCall call;
    call.m = sampled_cols_.size();
    call.n = in_dim();
    call.k = d_pre_.rows();
    call.a = d_pre_.data();
    call.lda = d_pre_.cols();
    call.a_trans = true;
    call.b = cached_input_.data();
    call.ldb = in_dim();
    call.c = weights_.data();
    call.c_rows = sampled_cols_.data();
    call.ldc = in_dim();
    call.epilogue = kern::Epilogue::kStep;
    call.scale = learning_rate;
    kern::gemm(call);
    for (std::size_t j = 0; j < sampled_cols_.size(); ++j) {
      bias_[sampled_cols_[j]] -= learning_rate * grad_bias_[j];
      grad_bias_[j] = 0.0;
    }
    return;
  }
  if (sparse_input_)
    kern::sparse_tn_step(cached_sparse_input_.view(), d_pre_.data(),
                         out_dim(), out_dim(), weights_.data(), out_dim(),
                         learning_rate);
  else if (output_major_)
    kern::gemm_tn_step(out_dim(), in_dim(), d_pre_.rows(), d_pre_.data(),
                       out_dim(), cached_input_.data(), in_dim(),
                       weights_.data(), in_dim(), learning_rate);
  else
    kern::gemm_tn_step(in_dim(), out_dim(), d_pre_.rows(),
                       cached_input_.data(), in_dim(), d_pre_.data(),
                       out_dim(), weights_.data(), out_dim(), learning_rate);
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
         Activation output, util::Rng& rng, bool output_major_top) {
  if (dims.size() < 2)
    throw std::invalid_argument("Mlp: need at least input and output dims");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool last = (i + 2 == dims.size());
    layers_.emplace_back(dims[i], dims[i + 1], last ? output : hidden, rng,
                         last && output_major_top);
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

const Matrix& Mlp::forward(const SparseRows& input) {
  const Matrix* current = &layers_.front().forward(input);
  for (std::size_t i = 1; i < layers_.size(); ++i)
    current = &layers_[i].forward(*current);
  return *current;
}

const Matrix& Mlp::forward_sampled(const Matrix& input,
                                   std::span<const std::uint32_t> cols) {
  const Matrix* current = &input;
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i)
    current = &layers_[i].forward(*current);
  return layers_.back().forward_sampled(*current, cols);
}

Matrix Mlp::infer(const Matrix& input) const {
  Matrix current = layers_.front().infer(input);
  for (std::size_t i = 1; i < layers_.size(); ++i)
    current = layers_[i].infer(current);
  return current;
}

Matrix Mlp::infer(const SparseRows& input) const {
  std::vector<std::size_t> rows(input.rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  return infer(input, rows);
}

// A GEMM's output bits do not depend on how many rows it is given, so
// chunking the rows returns what one whole-input pass would.
Matrix Mlp::infer(const SparseRows& input,
                  std::span<const std::size_t> rows) const {
  Matrix out(rows.size(), out_dim());
  par::ParallelOptions options;
  options.what = "nn.mlp.infer";
  options.grain = kInferChunkRows;
  const auto body = [&](const par::ChunkRange& chunk) {
    SparseRows batch;
    input.gather_rows_into(rows.subspan(chunk.begin, chunk.end - chunk.begin),
                           batch);
    Matrix current, next;
    layers_.front().infer_into(batch, current);
    for (std::size_t i = 1; i < layers_.size(); ++i) {
      layers_[i].infer_into(current, next);
      std::swap(current, next);
    }
    std::memcpy(out.row(chunk.begin), current.data(),
                current.size() * sizeof(double));
  };
  par::parallel_for_chunks(rows.size(), options, body);
  return out;
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
