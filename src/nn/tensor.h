#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/logging.h"
#include "util/random.h"

namespace autoview {
namespace nn {

/// Numeric type of the autograd engine. Double keeps finite-difference
/// gradient checks tight; model sizes in this library are tiny.
using Scalar = double;

namespace internal {

/// \brief One node of the autograd tape: a dense row-major matrix, its
/// gradient, and a closure that back-propagates into its parents.
struct Node {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<Scalar> value;
  std::vector<Scalar> grad;
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  std::function<void(Node&)> backward;
  /// Stamp of the last Backward() traversal that reached this node; a
  /// node is visited once per traversal (see Tensor::Backward).
  uint64_t visit_stamp = 0;

  size_t size() const { return rows * cols; }
  Scalar& at(size_t r, size_t c) { return value[r * cols + c]; }
  Scalar at(size_t r, size_t c) const { return value[r * cols + c]; }
  Scalar& gat(size_t r, size_t c) { return grad[r * cols + c]; }
};

}  // namespace internal

/// \brief RAII scope that disables autograd-tape construction on the
/// current thread (the no-grad inference mode).
///
/// Ops executed inside the scope produce bit-identical values but their
/// result nodes allocate no gradient buffer, record no parents, attach
/// no backward closure, and never require grad — so the graph is not
/// retained and intermediate nodes free as soon as their Tensor handles
/// go out of scope. Calling
/// Backward() on a tensor produced under the guard is a programming
/// error (it has no gradient storage and AV_CHECKs).
///
/// The flag is thread-local: pool workers each control their own scope
/// (training on one thread is unaffected by inference on another).
/// Guards nest.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;
};

/// True while at least one NoGradGuard is alive on this thread.
bool InferenceMode();

/// \brief A handle to an autograd tape node holding a 2-D matrix.
///
/// Tensors are created by factories or produced by the free-function ops
/// below; every op records a backward closure so Backward() on a scalar
/// result fills the .grad() of every reachable tensor that
/// requires_grad. Vectors are 1xN matrices.
class Tensor {
 public:
  /// Empty (invalid) tensor.
  Tensor() = default;

  static Tensor Zeros(size_t rows, size_t cols, bool requires_grad = false);
  static Tensor Full(size_t rows, size_t cols, Scalar fill,
                     bool requires_grad = false);
  static Tensor FromData(std::vector<Scalar> data, size_t rows, size_t cols,
                         bool requires_grad = false);
  /// Xavier/Glorot-uniform initialization, for weight matrices.
  static Tensor Xavier(size_t rows, size_t cols, Rng* rng);
  /// Uniform in [-scale, scale].
  static Tensor Uniform(size_t rows, size_t cols, Scalar scale, Rng* rng);

  bool defined() const { return node_ != nullptr; }
  size_t rows() const { return node_->rows; }
  size_t cols() const { return node_->cols; }
  size_t size() const { return node_->size(); }
  bool requires_grad() const { return node_->requires_grad; }

  Scalar at(size_t r, size_t c) const { return node_->at(r, c); }
  /// Scalar value of a 1x1 tensor.
  Scalar item() const {
    AV_CHECK_EQ(size(), 1u);
    return node_->value[0];
  }

  const std::vector<Scalar>& data() const { return node_->value; }
  std::vector<Scalar>& mutable_data() { return node_->value; }
  const std::vector<Scalar>& grad() const { return node_->grad; }
  std::vector<Scalar>& mutable_grad() { return node_->grad; }

  /// Clears this tensor's gradient.
  void ZeroGrad() { std::fill(node_->grad.begin(), node_->grad.end(), 0.0); }

  /// Runs reverse-mode autodiff from this scalar (1x1) tensor.
  /// Gradients accumulate; call ZeroGrad on parameters between steps.
  void Backward() const;

  /// Internal node access for ops.
  const std::shared_ptr<internal::Node>& node() const { return node_; }

  /// Wraps an existing node.
  explicit Tensor(std::shared_ptr<internal::Node> node)
      : node_(std::move(node)) {}

 private:
  std::shared_ptr<internal::Node> node_;
};

// --- Operations (all differentiable unless noted) -----------------------

/// Matrix product: (m x k) * (k x n) -> (m x n).
Tensor MatMul(const Tensor& a, const Tensor& b);

/// The forward GEMM, shared by MatMul and MlpInference: writes
/// out = a * b for row-major `a` (m x k) and `b` (k x n) into
/// caller-owned storage, with no tape node. Every out[i][j] starts at
/// 0.0 and adds a[i][p] * b[p][j] over p in ascending order, skipping
/// `a[i][p] == 0.0`, so results are bit-identical to the naive i-p-j
/// loop with that skip (NaN/Inf propagation included). With `bias` (n
/// scalars) each element then becomes `acc + bias[j]`, and with `relu`
/// it is clamped by `!(x > 0) -> 0.0`: the per-element arithmetic of Add
/// and ReLU. `out` must hold m x n scalars and may not alias the inputs.
void Gemm(const Scalar* a, size_t m, size_t k, const Scalar* b, size_t n,
          Scalar* out, const Scalar* bias = nullptr, bool relu = false);

/// Element-wise sum; `b` may also be a 1xN row vector broadcast over
/// `a`'s rows (bias add).
Tensor Add(const Tensor& a, const Tensor& b);

/// Element-wise difference (same shapes).
Tensor Sub(const Tensor& a, const Tensor& b);

/// Element-wise (Hadamard) product (same shapes).
Tensor Mul(const Tensor& a, const Tensor& b);

/// Scalar scale.
Tensor Scale(const Tensor& a, Scalar s);

/// Rectified linear unit.
Tensor ReLU(const Tensor& a);

Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);

/// Horizontal concatenation of matrices with equal row counts.
Tensor ConcatCols(const std::vector<Tensor>& parts);

/// Vertical concatenation of matrices with equal column counts.
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Selects rows of `a` by index (with repetition); gradients scatter-add
/// back. This is the embedding-lookup primitive.
Tensor GatherRows(const Tensor& a, const std::vector<size_t>& indices);

/// Columns [start, start+len) of `a` as an (m x len) tensor.
Tensor SliceCols(const Tensor& a, size_t start, size_t len);

/// Row `r` of `a` as a 1xN tensor.
Tensor SelectRow(const Tensor& a, size_t r);

/// Mean over rows: (m x n) -> (1 x n). The paper's average pooling.
Tensor MeanRows(const Tensor& a);

/// Sum of all elements -> 1x1.
Tensor Sum(const Tensor& a);

/// Mean of all elements -> 1x1.
Tensor Mean(const Tensor& a);

/// Mean squared error between same-shaped tensors -> 1x1.
Tensor MseLoss(const Tensor& pred, const Tensor& target);

/// 1-D convolution along the row axis with a `k`-tap kernel shared by
/// all columns plus one bias per tap-position-independent column set:
/// out[r][c] = bias + sum_t kernel[t] * in[r+t-k/2][c]  (zero padding).
/// This is the paper's Conv2d with 3x1 kernels applied to the stacked
/// char-embedding matrix. `kernel` is (1 x k), `bias` is 1x1.
Tensor Conv1D(const Tensor& input, const Tensor& kernel, const Tensor& bias);

/// Batch normalization over all elements of `a` using its batch
/// statistics, then affine transform: gamma * x_hat + beta (both 1x1).
/// `eps` stabilizes the variance. Matches BatchNorm2d with one channel.
Tensor BatchNorm(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                 Scalar eps = 1e-5);

}  // namespace nn
}  // namespace autoview
