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

/// Creates the result node of an op over `parents`; requires_grad is
/// inherited from any parent. Under a NoGradGuard the parents are
/// dropped (no graph retention) and the node carries no gradient; the
/// backward closures the ops still attach are then unreachable, since
/// Backward() refuses to start from a gradient-less node.
std::shared_ptr<Node> OpNode(size_t rows, size_t cols,
                             std::vector<std::shared_ptr<Node>> parents) {
  if (no_grad_depth > 0) return NewNode(rows, cols, /*requires_grad=*/false);
  bool needs_grad = false;
  for (const auto& p : parents) needs_grad |= p->requires_grad;
  auto node = NewNode(rows, cols, needs_grad);
  node->parents = std::move(parents);
  return node;
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
  auto out = OpNode(m, n, {a.node(), b.node()});
  const auto& av = a.data();
  const auto& bv = b.data();
  for (size_t i = 0; i < m; ++i) {
    for (size_t p = 0; p < k; ++p) {
      const Scalar aip = av[i * k + p];
      if (aip == 0.0) continue;
      for (size_t j = 0; j < n; ++j) {
        out->value[i * n + j] += aip * bv[p * n + j];
      }
    }
  }
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

void MatMulTB(const Scalar* a, size_t m, size_t k, const Scalar* bt, size_t n,
              Scalar* out) {
  // Each output element owns an independent accumulator filled over p in
  // ascending order with the `aip == 0.0` skip, i.e. exactly the float
  // additions MatMul's forward performs for that element — only the
  // traversal (row-of-a times row-of-bt, 4 columns at a time) differs.
  constexpr size_t kTile = 4;
  for (size_t i = 0; i < m; ++i) {
    const Scalar* ai = a + i * k;
    Scalar* oi = out + i * n;
    size_t j = 0;
    for (; j + kTile <= n; j += kTile) {
      const Scalar* b0 = bt + j * k;
      const Scalar* b1 = b0 + k;
      const Scalar* b2 = b1 + k;
      const Scalar* b3 = b2 + k;
      Scalar acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
      for (size_t p = 0; p < k; ++p) {
        const Scalar aip = ai[p];
        if (aip == 0.0) continue;
        acc0 += aip * b0[p];
        acc1 += aip * b1[p];
        acc2 += aip * b2[p];
        acc3 += aip * b3[p];
      }
      oi[j] = acc0;
      oi[j + 1] = acc1;
      oi[j + 2] = acc2;
      oi[j + 3] = acc3;
    }
    for (; j < n; ++j) {
      const Scalar* bj = bt + j * k;
      Scalar acc = 0.0;
      for (size_t p = 0; p < k; ++p) {
        const Scalar aip = ai[p];
        if (aip == 0.0) continue;
        acc += aip * bj[p];
      }
      oi[j] = acc;
    }
  }
}

Tensor Add(const Tensor& a, const Tensor& b) {
  AV_CHECK_EQ(a.cols(), b.cols());
  const bool broadcast = b.rows() == 1 && a.rows() != 1;
  AV_CHECK(broadcast || a.rows() == b.rows());
  const size_t m = a.rows(), n = a.cols();
  auto out = OpNode(m, n, {a.node(), b.node()});
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      out->value[i * n + j] =
          a.data()[i * n + j] + b.data()[(broadcast ? 0 : i) * n + j];
    }
  }
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
  auto out = OpNode(a.rows(), a.cols(), {a.node(), b.node()});
  for (size_t i = 0; i < out->size(); ++i) {
    out->value[i] = a.data()[i] - b.data()[i];
  }
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
  auto out = OpNode(a.rows(), a.cols(), {a.node(), b.node()});
  for (size_t i = 0; i < out->size(); ++i) {
    out->value[i] = a.data()[i] * b.data()[i];
  }
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
  auto out = OpNode(a.rows(), a.cols(), {a.node()});
  for (size_t i = 0; i < out->size(); ++i) out->value[i] = a.data()[i] * s;
  out->backward = [s](Node& self) {
    Node& A = *self.parents[0];
    if (!A.requires_grad) return;
    for (size_t i = 0; i < self.size(); ++i) A.grad[i] += self.grad[i] * s;
  };
  return Tensor(out);
}

Tensor ReLU(const Tensor& a) {
  auto out = OpNode(a.rows(), a.cols(), {a.node()});
  for (size_t i = 0; i < out->size(); ++i) {
    out->value[i] = a.data()[i] > 0 ? a.data()[i] : 0.0;
  }
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
  auto out = OpNode(a.rows(), a.cols(), {a.node()});
  for (size_t i = 0; i < out->size(); ++i) {
    out->value[i] = 1.0 / (1.0 + std::exp(-a.data()[i]));
  }
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
  auto out = OpNode(a.rows(), a.cols(), {a.node()});
  for (size_t i = 0; i < out->size(); ++i) {
    out->value[i] = std::tanh(a.data()[i]);
  }
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
  std::vector<std::shared_ptr<Node>> parents;
  for (const auto& part : parts) {
    AV_CHECK_EQ(part.rows(), m);
    total += part.cols();
    parents.push_back(part.node());
  }
  auto out = OpNode(m, total, std::move(parents));
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
  std::vector<std::shared_ptr<Node>> parents;
  for (const auto& part : parts) {
    AV_CHECK_EQ(part.cols(), n);
    total += part.rows();
    parents.push_back(part.node());
  }
  auto out = OpNode(total, n, std::move(parents));
  size_t row = 0;
  for (const auto& part : parts) {
    std::copy(part.data().begin(), part.data().end(),
              out->value.begin() + row * n);
    row += part.rows();
  }
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
  auto out = OpNode(indices.size(), n, {a.node()});
  for (size_t i = 0; i < indices.size(); ++i) {
    AV_CHECK_LT(indices[i], a.rows());
    std::copy(a.data().begin() + indices[i] * n,
              a.data().begin() + (indices[i] + 1) * n,
              out->value.begin() + i * n);
  }
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
  auto out = OpNode(m, len, {a.node()});
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < len; ++j) {
      out->value[i * len + j] = a.data()[i * n + start + j];
    }
  }
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
  auto out = OpNode(1, n, {a.node()});
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      out->value[j] += a.data()[i * n + j];
    }
  }
  for (size_t j = 0; j < n; ++j) out->value[j] /= static_cast<Scalar>(m);
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
  auto out = OpNode(1, 1, {a.node()});
  for (Scalar v : a.data()) out->value[0] += v;
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
  auto out = OpNode(m, n, {input.node(), kernel.node(), bias.node()});
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

  auto out = OpNode(a.rows(), a.cols(), {a.node(), gamma.node(), beta.node()});
  const Scalar g0 = gamma.data()[0];
  const Scalar b0 = beta.data()[0];
  for (size_t i = 0; i < count; ++i) {
    out->value[i] = g0 * (a.data()[i] - mean) * inv_std + b0;
  }
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
