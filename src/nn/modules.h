#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.h"

namespace autoview {
namespace nn {

/// \brief Base class for parameterized layers.
class Module {
 public:
  virtual ~Module() = default;

  /// All trainable parameter tensors of this module (recursively).
  virtual std::vector<Tensor> Parameters() const = 0;

  /// Zeroes all parameter gradients.
  void ZeroGrad() const {
    for (auto& p : Parameters()) {
      Tensor t = p;
      t.ZeroGrad();
    }
  }

  /// Total number of trainable scalars.
  size_t NumParameters() const {
    size_t n = 0;
    for (const auto& p : Parameters()) n += p.size();
    return n;
  }
};

/// \brief Fully connected layer: y = x W + b.
class Linear : public Module {
 public:
  Linear(size_t in_features, size_t out_features, Rng* rng);

  /// (m x in) -> (m x out).
  Tensor Forward(const Tensor& x) const { return Add(MatMul(x, w_), b_); }

  std::vector<Tensor> Parameters() const override { return {w_, b_}; }

  size_t in_features() const { return w_.rows(); }
  size_t out_features() const { return w_.cols(); }

  const Tensor& weight() const { return w_; }
  const Tensor& bias() const { return b_; }

 private:
  Tensor w_;
  Tensor b_;
};

/// \brief Keyword Embedding (§IV-B2): a learned dense vector per
/// vocabulary id; equivalent to one-hot times a (n_k x n_d) matrix.
class Embedding : public Module {
 public:
  /// When `trainable` is false the table is frozen at its random
  /// initialization — used by the N-Kw / N-Str ablations, which replace
  /// *learned* embeddings with fixed vectors (the paper uses one-hot; a
  /// frozen random projection preserves the "not learned" property while
  /// keeping dimensions uniform — see DESIGN.md).
  Embedding(size_t vocab_size, size_t dim, Rng* rng, bool trainable = true);

  /// Looks up one row per id -> (ids.size() x dim).
  Tensor Forward(const std::vector<size_t>& ids) const {
    return GatherRows(weight_, ids);
  }

  std::vector<Tensor> Parameters() const override {
    return trainable_ ? std::vector<Tensor>{weight_} : std::vector<Tensor>{};
  }

  size_t vocab_size() const { return weight_.rows(); }
  size_t dim() const { return weight_.cols(); }

 private:
  Tensor weight_;
  bool trainable_ = true;
};

/// \brief Single-layer LSTM encoder (§IV-B2, LSTM1/LSTM2).
///
/// Consumes a (seq_len x input) matrix one timestep at a time and
/// returns the final hidden state (1 x hidden). Gates use the standard
/// formulation i,f,g,o with sigmoid/tanh activations.
class Lstm : public Module {
 public:
  Lstm(size_t input_size, size_t hidden_size, Rng* rng);

  /// Encodes the full sequence; returns h_T (1 x hidden). An empty
  /// sequence (0 rows) returns zeros.
  Tensor Forward(const Tensor& sequence) const;

  std::vector<Tensor> Parameters() const override;

  size_t input_size() const { return input_size_; }
  size_t hidden_size() const { return hidden_size_; }

 private:
  size_t input_size_;
  size_t hidden_size_;
  // Input/recurrent weights and bias per gate, fused: (in+hidden) x 4H.
  Tensor w_;
  Tensor b_;
};

/// \brief One convolution block of the String Encoding model (Fig. 6):
/// Conv2d(3x1) -> BatchNorm2d -> ReLU.
class ConvBlock : public Module {
 public:
  explicit ConvBlock(Rng* rng, size_t kernel_size = 3);

  /// (len x dim) -> (len x dim).
  Tensor Forward(const Tensor& x) const {
    return ReLU(BatchNorm(Conv1D(x, kernel_, bias_), gamma_, beta_));
  }

  std::vector<Tensor> Parameters() const override {
    return {kernel_, bias_, gamma_, beta_};
  }

 private:
  Tensor kernel_;
  Tensor bias_;
  Tensor gamma_;
  Tensor beta_;
};

/// \brief Multi-layer perceptron of Linear+ReLU layers (ReLU after every
/// layer except optionally the last). Used for the DQN value network.
class Mlp : public Module {
 public:
  /// `sizes` = {in, h1, ..., out}; `relu_last` adds ReLU after the final
  /// layer too (the paper's DQN uses ReLU on every layer).
  Mlp(const std::vector<size_t>& sizes, Rng* rng, bool relu_last = false);

  Tensor Forward(const Tensor& x) const;

  std::vector<Tensor> Parameters() const override;

  /// Copies parameter values from another identically-shaped MLP (target
  /// network sync in DQN).
  void CopyFrom(const Mlp& other);

  const std::vector<Linear>& layers() const { return layers_; }
  bool relu_last() const { return relu_last_; }

 private:
  std::vector<Linear> layers_;
  bool relu_last_;
};

/// \brief Allocation-free forward evaluator for an Mlp (the no-grad
/// inference fast path).
///
/// Runs each layer as one call of the forward GEMM (nn::Gemm) straight
/// over the layer's live weight (in x out) and bias, with the bias add
/// and ReLU folded into the kernel's store, into two reusable
/// activation buffers: Forward() builds no tape nodes and allocates
/// nothing after the first call at a given batch size. Outputs are
/// bit-identical to Mlp::Forward on the same input: MatMul runs the same
/// kernel, and the fused store applies Add's `acc + b` and then ReLU's
/// clamp per element. Nothing is snapshotted, so parameter updates
/// (optimizer steps, CopyFrom) show up in the next call. Not
/// thread-safe — each thread needs its own instance.
class MlpInference {
 public:
  explicit MlpInference(const Mlp* mlp) : mlp_(mlp) {}

  /// Forward pass over `rows` inputs of in_features each (row-major).
  /// The returned buffer (rows x out_features) is owned by this object
  /// and valid until the next Forward() call.
  const std::vector<Scalar>& Forward(const Scalar* x, size_t rows);

 private:
  const Mlp* mlp_;
  std::vector<Scalar> buffers_[2];
};

}  // namespace nn
}  // namespace autoview
