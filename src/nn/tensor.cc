#include "nn/tensor.h"

#include <algorithm>
#include <atomic>
#include <cmath>

namespace autoview {
namespace nn {

using internal::Node;

namespace {

/// Depth of nested NoGradGuards on this thread.
thread_local int no_grad_depth = 0;

/// Source of Backward() traversal stamps. Process-wide rather than
/// thread_local: a model's parameter nodes can be back-propagated from
/// different pool threads over their life, and a per-thread counter
/// could hand out a stamp a node already carries from another thread's
/// traversal, which would skip it. Relaxed ordering suffices: a stamp
/// only has to be unique, and it publishes no data.
std::atomic<uint64_t> last_visit_stamp{0};

std::shared_ptr<Node> NewNode(size_t rows, size_t cols, bool requires_grad) {
  auto node = std::make_shared<Node>();
  node->rows = rows;
  node->cols = cols;
  node->value.assign(rows * cols, 0.0);
  if (no_grad_depth == 0) {
    node->grad.assign(rows * cols, 0.0);
    node->requires_grad = requires_grad;
  }
  return node;
}

const std::shared_ptr<Node>& NodeOf(const Tensor* t) { return t->node(); }
const std::shared_ptr<Node>& NodeOf(const Tensor& t) { return t.node(); }

/// Creates the result node of an op over `inputs`; requires_grad is
/// inherited from any input. Under a NoGradGuard no parents vector is
/// built and the node carries no gradient (no graph retention); each op
/// then also returns before attaching its backward closure.
template <typename Inputs>
std::shared_ptr<Node> OpNode(size_t rows, size_t cols, const Inputs& inputs) {
  if (InferenceMode()) return NewNode(rows, cols, /*requires_grad=*/false);
  std::vector<std::shared_ptr<Node>> parents;
  parents.reserve(inputs.size());
  bool needs_grad = false;
  for (const auto& input : inputs) {
    parents.push_back(NodeOf(input));
    needs_grad |= parents.back()->requires_grad;
  }
  auto node = NewNode(rows, cols, needs_grad);
  node->parents = std::move(parents);
  return node;
}

std::shared_ptr<Node> OpNode(size_t rows, size_t cols,
                             std::initializer_list<const Tensor*> inputs) {
  return OpNode<std::initializer_list<const Tensor*>>(rows, cols, inputs);
}

/// Inputs the forward GEMM compacts per pass: the nonzero a[i][p] of
/// one row within a block of kGemmBlock consecutive p.
constexpr size_t kGemmBlock = 64;

struct GemmBlock {
  const Scalar* b = nullptr;  ///< row p0 of b (the block's first p)
  size_t n = 0;               ///< columns of b
  size_t count = 0;           ///< nonzero inputs in the block
  uint32_t offset[kGemmBlock] = {};  ///< p - p0 of each, ascending
  Scalar value[kGemmBlock] = {};     ///< a[i][p] of each
};

/// Columns [j, j + C) of one output row: accumulates the block's
/// nonzero inputs over p in ascending order, starting from 0.0 for the
/// first block and from the partial sums already in `out_row` after
/// it, then stores acc (+ bias[j], then the ReLU clamp, if given). The
/// C accumulators stay in registers across the p loop, which has no
/// branch, so the compiler vectorizes it over the columns.
template <size_t C>
void GemmChunk(const GemmBlock& block, size_t j, bool first,
               const Scalar* bias, bool relu, Scalar* out_row) {
  Scalar acc[C];
  for (size_t c = 0; c < C; ++c) acc[c] = first ? 0.0 : out_row[j + c];
  for (size_t q = 0; q < block.count; ++q) {
    const Scalar aip = block.value[q];
    const Scalar* bp = block.b + block.offset[q] * block.n + j;
    for (size_t c = 0; c < C; ++c) acc[c] += aip * bp[c];
  }
  for (size_t c = 0; c < C; ++c) {
    Scalar v = acc[c];
    if (bias != nullptr) v = v + bias[j + c];
    if (relu && !(v > 0)) v = 0.0;
    out_row[j + c] = v;
  }
}

}  // namespace

NoGradGuard::NoGradGuard() { ++no_grad_depth; }
NoGradGuard::~NoGradGuard() { --no_grad_depth; }

bool InferenceMode() { return no_grad_depth > 0; }

Tensor Tensor::Zeros(size_t rows, size_t cols, bool requires_grad) {
  return Tensor(NewNode(rows, cols, requires_grad));
}

Tensor Tensor::Full(size_t rows, size_t cols, Scalar fill,
                    bool requires_grad) {
  auto node = NewNode(rows, cols, requires_grad);
  std::fill(node->value.begin(), node->value.end(), fill);
  return Tensor(node);
}

Tensor Tensor::FromData(std::vector<Scalar> data, size_t rows, size_t cols,
                        bool requires_grad) {
  AV_CHECK_EQ(data.size(), rows * cols);
  auto node = NewNode(rows, cols, requires_grad);
  node->value = std::move(data);
  return Tensor(node);
}

Tensor Tensor::Xavier(size_t rows, size_t cols, Rng* rng) {
  const Scalar scale =
      std::sqrt(6.0 / static_cast<Scalar>(rows + cols));
  return Uniform(rows, cols, scale, rng);
}

Tensor Tensor::Uniform(size_t rows, size_t cols, Scalar scale, Rng* rng) {
  auto node = NewNode(rows, cols, /*requires_grad=*/true);
  for (auto& v : node->value) v = rng->Uniform(-scale, scale);
  return Tensor(node);
}

void Tensor::Backward() const {
  AV_CHECK(node_ != nullptr);
  AV_CHECK_EQ(node_->size(), 1u);
  // Results produced under a NoGradGuard have no gradient storage.
  AV_CHECK(!node_->grad.empty());
  // Topological order via iterative post-order DFS. A node is visited
  // when it carries this traversal's stamp, so no per-call visited set
  // is built.
  const uint64_t stamp =
      last_visit_stamp.fetch_add(1, std::memory_order_relaxed) + 1;
  std::vector<Node*> order;
  std::vector<std::pair<Node*, size_t>> stack = {{node_.get(), 0}};
  node_->visit_stamp = stamp;
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Node* parent = node->parents[next_child].get();
      ++next_child;
      if (parent->requires_grad && parent->visit_stamp != stamp) {
        parent->visit_stamp = stamp;
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // order is post-order (parents before consumers); reverse it so the
  // output comes first.
  node_->grad[0] += 1.0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->backward) (*it)->backward(**it);
  }
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  AV_CHECK_EQ(a.cols(), b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  auto out = OpNode(m, n, {&a, &b});
  Gemm(a.data().data(), m, k, b.data().data(), n, out->value.data());
  if (InferenceMode()) return Tensor(out);
  out->backward = [m, k, n](Node& self) {
    Node& A = *self.parents[0];
    Node& B = *self.parents[1];
    if (A.requires_grad) {
      // dA = dOut * B^T
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
          const Scalar g = self.grad[i * n + j];
          if (g == 0.0) continue;
          for (size_t p = 0; p < k; ++p) {
            A.grad[i * k + p] += g * B.value[p * n + j];
          }
        }
      }
    }
    if (B.requires_grad) {
      // dB = A^T * dOut
      for (size_t p = 0; p < k; ++p) {
        for (size_t i = 0; i < m; ++i) {
          const Scalar aip = A.value[i * k + p];
          if (aip == 0.0) continue;
          for (size_t j = 0; j < n; ++j) {
            B.grad[p * n + j] += aip * self.grad[i * n + j];
          }
        }
      }
    }
  };
  return Tensor(out);
}

void Gemm(const Scalar* a, size_t m, size_t k, const Scalar* b, size_t n,
          Scalar* out, const Scalar* bias, bool relu) {
  // One row at a time: compact the row's nonzero inputs (branch-free;
  // NaN compares != 0 and is kept), then sweep the output columns in
  // register-held chunks of 16, 8, 4 and 1 over that list. A row with
  // more than kGemmBlock inputs takes several passes, carrying its
  // partial sums in `out`; bias and ReLU apply after the last one.
  GemmBlock block;
  block.n = n;
  for (size_t i = 0; i < m; ++i) {
    const Scalar* ai = a + i * k;
    Scalar* oi = out + i * n;
    size_t p0 = 0;
    do {
      const size_t p1 = std::min(k, p0 + kGemmBlock);
      block.b = b + p0 * n;
      block.count = 0;
      for (size_t p = p0; p < p1; ++p) {
        block.offset[block.count] = static_cast<uint32_t>(p - p0);
        block.value[block.count] = ai[p];
        block.count += ai[p] != 0.0;
      }
      const bool first = p0 == 0;
      const bool last = p1 == k;
      const Scalar* bias_now = last ? bias : nullptr;
      const bool relu_now = last && relu;
      size_t j = 0;
      for (; j + 16 <= n; j += 16) {
        GemmChunk<16>(block, j, first, bias_now, relu_now, oi);
      }
      if (j + 8 <= n) {
        GemmChunk<8>(block, j, first, bias_now, relu_now, oi);
        j += 8;
      }
      if (j + 4 <= n) {
        GemmChunk<4>(block, j, first, bias_now, relu_now, oi);
        j += 4;
      }
      for (; j < n; ++j) GemmChunk<1>(block, j, first, bias_now, relu_now, oi);
      p0 = p1;
    } while (p0 < k);
  }
}

Tensor Add(const Tensor& a, const Tensor& b) {
  AV_CHECK_EQ(a.cols(), b.cols());
  const bool broadcast = b.rows() == 1 && a.rows() != 1;
  AV_CHECK(broadcast || a.rows() == b.rows());
  const size_t m = a.rows(), n = a.cols();
  auto out = OpNode(m, n, {&a, &b});
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      out->value[i * n + j] =
          a.data()[i * n + j] + b.data()[(broadcast ? 0 : i) * n + j];
    }
  }
  if (InferenceMode()) return Tensor(out);
  out->backward = [m, n, broadcast](Node& self) {
    Node& A = *self.parents[0];
    Node& B = *self.parents[1];
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        const Scalar g = self.grad[i * n + j];
        if (A.requires_grad) A.grad[i * n + j] += g;
        if (B.requires_grad) B.grad[(broadcast ? 0 : i) * n + j] += g;
      }
    }
  };
  return Tensor(out);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  AV_CHECK_EQ(a.rows(), b.rows());
  AV_CHECK_EQ(a.cols(), b.cols());
  auto out = OpNode(a.rows(), a.cols(), {&a, &b});
  for (size_t i = 0; i < out->size(); ++i) {
    out->value[i] = a.data()[i] - b.data()[i];
  }
  if (InferenceMode()) return Tensor(out);
  out->backward = [](Node& self) {
    Node& A = *self.parents[0];
    Node& B = *self.parents[1];
    for (size_t i = 0; i < self.size(); ++i) {
      if (A.requires_grad) A.grad[i] += self.grad[i];
      if (B.requires_grad) B.grad[i] -= self.grad[i];
    }
  };
  return Tensor(out);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  AV_CHECK_EQ(a.rows(), b.rows());
  AV_CHECK_EQ(a.cols(), b.cols());
  auto out = OpNode(a.rows(), a.cols(), {&a, &b});
  for (size_t i = 0; i < out->size(); ++i) {
    out->value[i] = a.data()[i] * b.data()[i];
  }
  if (InferenceMode()) return Tensor(out);
  out->backward = [](Node& self) {
    Node& A = *self.parents[0];
    Node& B = *self.parents[1];
    for (size_t i = 0; i < self.size(); ++i) {
      if (A.requires_grad) A.grad[i] += self.grad[i] * B.value[i];
      if (B.requires_grad) B.grad[i] += self.grad[i] * A.value[i];
    }
  };
  return Tensor(out);
}

Tensor Scale(const Tensor& a, Scalar s) {
  auto out = OpNode(a.rows(), a.cols(), {&a});
  for (size_t i = 0; i < out->size(); ++i) out->value[i] = a.data()[i] * s;
  if (InferenceMode()) return Tensor(out);
  out->backward = [s](Node& self) {
    Node& A = *self.parents[0];
    if (!A.requires_grad) return;
    for (size_t i = 0; i < self.size(); ++i) A.grad[i] += self.grad[i] * s;
  };
  return Tensor(out);
}

Tensor ReLU(const Tensor& a) {
  auto out = OpNode(a.rows(), a.cols(), {&a});
  for (size_t i = 0; i < out->size(); ++i) {
    out->value[i] = a.data()[i] > 0 ? a.data()[i] : 0.0;
  }
  if (InferenceMode()) return Tensor(out);
  out->backward = [](Node& self) {
    Node& A = *self.parents[0];
    if (!A.requires_grad) return;
    for (size_t i = 0; i < self.size(); ++i) {
      if (A.value[i] > 0) A.grad[i] += self.grad[i];
    }
  };
  return Tensor(out);
}

Tensor Sigmoid(const Tensor& a) {
  auto out = OpNode(a.rows(), a.cols(), {&a});
  for (size_t i = 0; i < out->size(); ++i) {
    out->value[i] = 1.0 / (1.0 + std::exp(-a.data()[i]));
  }
  if (InferenceMode()) return Tensor(out);
  out->backward = [](Node& self) {
    Node& A = *self.parents[0];
    if (!A.requires_grad) return;
    for (size_t i = 0; i < self.size(); ++i) {
      const Scalar y = self.value[i];
      A.grad[i] += self.grad[i] * y * (1.0 - y);
    }
  };
  return Tensor(out);
}

Tensor Tanh(const Tensor& a) {
  auto out = OpNode(a.rows(), a.cols(), {&a});
  for (size_t i = 0; i < out->size(); ++i) {
    out->value[i] = std::tanh(a.data()[i]);
  }
  if (InferenceMode()) return Tensor(out);
  out->backward = [](Node& self) {
    Node& A = *self.parents[0];
    if (!A.requires_grad) return;
    for (size_t i = 0; i < self.size(); ++i) {
      const Scalar y = self.value[i];
      A.grad[i] += self.grad[i] * (1.0 - y * y);
    }
  };
  return Tensor(out);
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  AV_CHECK(!parts.empty());
  const size_t m = parts[0].rows();
  size_t total = 0;
  for (const auto& part : parts) {
    AV_CHECK_EQ(part.rows(), m);
    total += part.cols();
  }
  auto out = OpNode(m, total, parts);
  size_t offset = 0;
  for (const auto& part : parts) {
    const size_t n = part.cols();
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        out->value[i * total + offset + j] = part.data()[i * n + j];
      }
    }
    offset += n;
  }
  if (InferenceMode()) return Tensor(out);
  out->backward = [m, total](Node& self) {
    size_t off = 0;
    for (const auto& parent : self.parents) {
      const size_t n = parent->cols;
      if (parent->requires_grad) {
        for (size_t i = 0; i < m; ++i) {
          for (size_t j = 0; j < n; ++j) {
            parent->grad[i * n + j] += self.grad[i * total + off + j];
          }
        }
      }
      off += n;
    }
  };
  return Tensor(out);
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  AV_CHECK(!parts.empty());
  const size_t n = parts[0].cols();
  size_t total = 0;
  for (const auto& part : parts) {
    AV_CHECK_EQ(part.cols(), n);
    total += part.rows();
  }
  auto out = OpNode(total, n, parts);
  size_t row = 0;
  for (const auto& part : parts) {
    std::copy(part.data().begin(), part.data().end(),
              out->value.begin() + row * n);
    row += part.rows();
  }
  if (InferenceMode()) return Tensor(out);
  out->backward = [n](Node& self) {
    size_t row = 0;
    for (const auto& parent : self.parents) {
      if (parent->requires_grad) {
        for (size_t i = 0; i < parent->size(); ++i) {
          parent->grad[i] += self.grad[row * n + i];
        }
      }
      row += parent->rows;
    }
  };
  return Tensor(out);
}

Tensor GatherRows(const Tensor& a, const std::vector<size_t>& indices) {
  const size_t n = a.cols();
  auto out = OpNode(indices.size(), n, {&a});
  for (size_t i = 0; i < indices.size(); ++i) {
    AV_CHECK_LT(indices[i], a.rows());
    std::copy(a.data().begin() + indices[i] * n,
              a.data().begin() + (indices[i] + 1) * n,
              out->value.begin() + i * n);
  }
  if (InferenceMode()) return Tensor(out);
  out->backward = [indices, n](Node& self) {
    Node& A = *self.parents[0];
    if (!A.requires_grad) return;
    for (size_t i = 0; i < indices.size(); ++i) {
      for (size_t j = 0; j < n; ++j) {
        A.grad[indices[i] * n + j] += self.grad[i * n + j];
      }
    }
  };
  return Tensor(out);
}

Tensor SelectRow(const Tensor& a, size_t r) { return GatherRows(a, {r}); }

Tensor SliceCols(const Tensor& a, size_t start, size_t len) {
  AV_CHECK_LE(start + len, a.cols());
  const size_t m = a.rows(), n = a.cols();
  auto out = OpNode(m, len, {&a});
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < len; ++j) {
      out->value[i * len + j] = a.data()[i * n + start + j];
    }
  }
  if (InferenceMode()) return Tensor(out);
  out->backward = [m, n, start, len](Node& self) {
    Node& A = *self.parents[0];
    if (!A.requires_grad) return;
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < len; ++j) {
        A.grad[i * n + start + j] += self.grad[i * len + j];
      }
    }
  };
  return Tensor(out);
}

Tensor MeanRows(const Tensor& a) {
  const size_t m = a.rows(), n = a.cols();
  AV_CHECK_GT(m, 0u);
  auto out = OpNode(1, n, {&a});
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      out->value[j] += a.data()[i * n + j];
    }
  }
  for (size_t j = 0; j < n; ++j) out->value[j] /= static_cast<Scalar>(m);
  if (InferenceMode()) return Tensor(out);
  out->backward = [m, n](Node& self) {
    Node& A = *self.parents[0];
    if (!A.requires_grad) return;
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        A.grad[i * n + j] += self.grad[j] / static_cast<Scalar>(m);
      }
    }
  };
  return Tensor(out);
}

Tensor Sum(const Tensor& a) {
  auto out = OpNode(1, 1, {&a});
  for (Scalar v : a.data()) out->value[0] += v;
  if (InferenceMode()) return Tensor(out);
  out->backward = [](Node& self) {
    Node& A = *self.parents[0];
    if (!A.requires_grad) return;
    for (auto& g : A.grad) g += self.grad[0];
  };
  return Tensor(out);
}

Tensor Mean(const Tensor& a) {
  return Scale(Sum(a), 1.0 / static_cast<Scalar>(a.size()));
}

Tensor MseLoss(const Tensor& pred, const Tensor& target) {
  Tensor diff = Sub(pred, target);
  return Mean(Mul(diff, diff));
}

Tensor Conv1D(const Tensor& input, const Tensor& kernel, const Tensor& bias) {
  AV_CHECK_EQ(kernel.rows(), 1u);
  AV_CHECK_EQ(bias.size(), 1u);
  const size_t m = input.rows(), n = input.cols(), k = kernel.cols();
  const int64_t half = static_cast<int64_t>(k) / 2;
  auto out = OpNode(m, n, {&input, &kernel, &bias});
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      Scalar acc = bias.data()[0];
      for (size_t t = 0; t < k; ++t) {
        const int64_t r = static_cast<int64_t>(i) + static_cast<int64_t>(t) -
                          half;
        if (r < 0 || r >= static_cast<int64_t>(m)) continue;  // zero pad
        acc += kernel.data()[t] * input.data()[static_cast<size_t>(r) * n + j];
      }
      out->value[i * n + j] = acc;
    }
  }
  if (InferenceMode()) return Tensor(out);
  out->backward = [m, n, k, half](Node& self) {
    Node& in = *self.parents[0];
    Node& ker = *self.parents[1];
    Node& b = *self.parents[2];
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        const Scalar g = self.grad[i * n + j];
        if (g == 0.0) continue;
        if (b.requires_grad) b.grad[0] += g;
        for (size_t t = 0; t < k; ++t) {
          const int64_t r = static_cast<int64_t>(i) +
                            static_cast<int64_t>(t) - half;
          if (r < 0 || r >= static_cast<int64_t>(m)) continue;
          const size_t idx = static_cast<size_t>(r) * n + j;
          if (ker.requires_grad) ker.grad[t] += g * in.value[idx];
          if (in.requires_grad) in.grad[idx] += g * ker.value[t];
        }
      }
    }
  };
  return Tensor(out);
}

Tensor BatchNorm(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                 Scalar eps) {
  AV_CHECK_EQ(gamma.size(), 1u);
  AV_CHECK_EQ(beta.size(), 1u);
  const size_t count = a.size();
  AV_CHECK_GT(count, 0u);
  Scalar mean = 0.0;
  for (Scalar v : a.data()) mean += v;
  mean /= static_cast<Scalar>(count);
  Scalar var = 0.0;
  for (Scalar v : a.data()) var += (v - mean) * (v - mean);
  var /= static_cast<Scalar>(count);
  const Scalar inv_std = 1.0 / std::sqrt(var + eps);

  auto out = OpNode(a.rows(), a.cols(), {&a, &gamma, &beta});
  const Scalar g0 = gamma.data()[0];
  const Scalar b0 = beta.data()[0];
  for (size_t i = 0; i < count; ++i) {
    out->value[i] = g0 * (a.data()[i] - mean) * inv_std + b0;
  }
  if (InferenceMode()) return Tensor(out);
  out->backward = [mean, inv_std, count, g0](Node& self) {
    Node& A = *self.parents[0];
    Node& G = *self.parents[1];
    Node& B = *self.parents[2];
    // Precompute sums needed by the batch-norm backward formula.
    Scalar sum_dy = 0.0, sum_dy_xhat = 0.0;
    std::vector<Scalar> xhat(count);
    for (size_t i = 0; i < count; ++i) {
      xhat[i] = (A.value[i] - mean) * inv_std;
      sum_dy += self.grad[i];
      sum_dy_xhat += self.grad[i] * xhat[i];
    }
    if (G.requires_grad) G.grad[0] += sum_dy_xhat;
    if (B.requires_grad) B.grad[0] += sum_dy;
    if (A.requires_grad) {
      const Scalar nc = static_cast<Scalar>(count);
      for (size_t i = 0; i < count; ++i) {
        A.grad[i] += g0 * inv_std / nc *
                     (nc * self.grad[i] - sum_dy - xhat[i] * sum_dy_xhat);
      }
    }
  };
  return Tensor(out);
}

}  // namespace nn
}  // namespace autoview
