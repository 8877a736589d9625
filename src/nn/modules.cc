#include "nn/modules.h"

namespace autoview {
namespace nn {

Linear::Linear(size_t in_features, size_t out_features, Rng* rng)
    : w_(Tensor::Xavier(in_features, out_features, rng)),
      b_(Tensor::Zeros(1, out_features, /*requires_grad=*/true)) {}

Embedding::Embedding(size_t vocab_size, size_t dim, Rng* rng, bool trainable)
    : weight_(Tensor::Uniform(vocab_size, dim, trainable ? 0.1 : 1.0, rng)),
      trainable_(trainable) {
  if (!trainable) {
    // Drop the grad requirement so frozen lookups skip backprop work.
    weight_.node()->requires_grad = false;
  }
}

Lstm::Lstm(size_t input_size, size_t hidden_size, Rng* rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      w_(Tensor::Xavier(input_size + hidden_size, 4 * hidden_size, rng)),
      b_(Tensor::Zeros(1, 4 * hidden_size, /*requires_grad=*/true)) {
  // Initialize the forget-gate bias to 1 (standard trick for gradient
  // flow through early training).
  for (size_t j = hidden_size; j < 2 * hidden_size; ++j) {
    b_.mutable_data()[j] = 1.0;
  }
}

Tensor Lstm::Forward(const Tensor& sequence) const {
  Tensor h = Tensor::Zeros(1, hidden_size_);
  Tensor c = Tensor::Zeros(1, hidden_size_);
  if (!sequence.defined() || sequence.rows() == 0) return h;
  AV_CHECK_EQ(sequence.cols(), input_size_);
  const size_t H = hidden_size_;
  for (size_t t = 0; t < sequence.rows(); ++t) {
    Tensor x_t = SelectRow(sequence, t);
    Tensor xh = ConcatCols({x_t, h});
    Tensor gates = Add(MatMul(xh, w_), b_);  // 1 x 4H, gate order i,f,g,o
    Tensor i_g = Sigmoid(SliceCols(gates, 0, H));
    Tensor f_g = Sigmoid(SliceCols(gates, H, H));
    Tensor g_g = Tanh(SliceCols(gates, 2 * H, H));
    Tensor o_g = Sigmoid(SliceCols(gates, 3 * H, H));
    c = Add(Mul(f_g, c), Mul(i_g, g_g));
    h = Mul(o_g, Tanh(c));
  }
  return h;
}

std::vector<Tensor> Lstm::Parameters() const { return {w_, b_}; }

ConvBlock::ConvBlock(Rng* rng, size_t kernel_size)
    : kernel_(Tensor::Xavier(1, kernel_size, rng)),
      bias_(Tensor::Zeros(1, 1, /*requires_grad=*/true)),
      gamma_(Tensor::Full(1, 1, 1.0, /*requires_grad=*/true)),
      beta_(Tensor::Zeros(1, 1, /*requires_grad=*/true)) {}

Mlp::Mlp(const std::vector<size_t>& sizes, Rng* rng, bool relu_last)
    : relu_last_(relu_last) {
  AV_CHECK_GE(sizes.size(), 2u);
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    layers_.emplace_back(sizes[i], sizes[i + 1], rng);
  }
}

Tensor Mlp::Forward(const Tensor& x) const {
  Tensor h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(h);
    if (i + 1 < layers_.size() || relu_last_) h = ReLU(h);
  }
  return h;
}

std::vector<Tensor> Mlp::Parameters() const {
  std::vector<Tensor> params;
  for (const auto& layer : layers_) {
    for (const auto& p : layer.Parameters()) params.push_back(p);
  }
  return params;
}

void Mlp::CopyFrom(const Mlp& other) {
  auto mine = Parameters();
  auto theirs = other.Parameters();
  AV_CHECK_EQ(mine.size(), theirs.size());
  for (size_t i = 0; i < mine.size(); ++i) {
    AV_CHECK_EQ(mine[i].size(), theirs[i].size());
    mine[i].mutable_data() = theirs[i].data();
  }
}

const std::vector<Scalar>& MlpInference::Forward(const Scalar* x,
                                                 size_t rows) {
  const auto& layers = mlp_->layers();
  AV_CHECK(!layers.empty());
  const Scalar* in = x;
  size_t cur = 0;
  for (size_t l = 0; l < layers.size(); ++l) {
    const Linear& layer = layers[l];
    const size_t n = layer.out_features();
    std::vector<Scalar>& out = buffers_[cur];
    out.resize(rows * n);
    const bool relu = l + 1 < layers.size() || mlp_->relu_last();
    Gemm(in, rows, layer.in_features(), layer.weight().data().data(), n,
         out.data(), layer.bias().data().data(), relu);
    in = out.data();
    cur ^= 1;
  }
  return buffers_[cur ^ 1];
}

}  // namespace nn
}  // namespace autoview
