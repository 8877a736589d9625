#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/modules.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"

namespace autoview {
namespace nn {
namespace {

/// \brief Plain SGD: the optimizer the update tests compare Adam with.
class Sgd {
 public:
  Sgd(std::vector<Tensor> params, Scalar lr)
      : params_(std::move(params)), lr_(lr) {}

  void Step() {
    for (auto& p : params_) {
      auto& value = p.mutable_data();
      const auto& grad = p.grad();
      for (size_t j = 0; j < value.size(); ++j) value[j] -= lr_ * grad[j];
    }
  }
  void ZeroGrad() {
    for (auto& p : params_) p.ZeroGrad();
  }

 private:
  std::vector<Tensor> params_;
  Scalar lr_;
};

/// Central-difference gradient check: perturbs every element of every
/// parameter and compares d(loss)/d(param) with the autograd result.
void CheckGradients(const std::vector<Tensor>& params,
                    const std::function<Tensor()>& loss_fn,
                    Scalar tol = 1e-6) {
  // Autograd gradients.
  for (auto p : params) p.ZeroGrad();
  Tensor loss = loss_fn();
  loss.Backward();
  std::vector<std::vector<Scalar>> analytic;
  for (const auto& p : params) analytic.push_back(p.grad());

  const Scalar h = 1e-5;
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Tensor p = params[pi];
    for (size_t j = 0; j < p.size(); ++j) {
      const Scalar original = p.data()[j];
      p.mutable_data()[j] = original + h;
      const Scalar up = loss_fn().item();
      p.mutable_data()[j] = original - h;
      const Scalar down = loss_fn().item();
      p.mutable_data()[j] = original;
      const Scalar numeric = (up - down) / (2 * h);
      EXPECT_NEAR(analytic[pi][j], numeric,
                  tol * std::max(1.0, std::fabs(numeric)))
          << "param " << pi << " index " << j;
    }
  }
}

TEST(TensorTest, FactoriesAndAccessors) {
  Tensor z = Tensor::Zeros(2, 3);
  EXPECT_EQ(z.rows(), 2u);
  EXPECT_EQ(z.cols(), 3u);
  EXPECT_EQ(z.size(), 6u);
  EXPECT_FALSE(z.requires_grad());
  Tensor f = Tensor::Full(1, 2, 4.5, true);
  EXPECT_TRUE(f.requires_grad());
  EXPECT_EQ(f.at(0, 1), 4.5);
  Tensor d = Tensor::FromData({1, 2, 3, 4}, 2, 2);
  EXPECT_EQ(d.at(1, 0), 3.0);
}

TEST(TensorTest, MatMulValues) {
  Tensor a = Tensor::FromData({1, 2, 3, 4}, 2, 2);
  Tensor b = Tensor::FromData({5, 6, 7, 8}, 2, 2);
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.at(0, 0), 19.0);
  EXPECT_EQ(c.at(0, 1), 22.0);
  EXPECT_EQ(c.at(1, 0), 43.0);
  EXPECT_EQ(c.at(1, 1), 50.0);
}

TEST(TensorTest, AddBroadcastsBias) {
  Tensor a = Tensor::FromData({1, 2, 3, 4}, 2, 2);
  Tensor bias = Tensor::FromData({10, 20}, 1, 2);
  Tensor c = Add(a, bias);
  EXPECT_EQ(c.at(0, 0), 11.0);
  EXPECT_EQ(c.at(1, 1), 24.0);
}

TEST(TensorTest, SimpleBackward) {
  // loss = sum((a*b)) with a,b trainable.
  Tensor a = Tensor::FromData({2, 3}, 1, 2, true);
  Tensor b = Tensor::FromData({5, 7}, 1, 2, true);
  Tensor loss = Sum(Mul(a, b));
  loss.Backward();
  EXPECT_EQ(a.grad()[0], 5.0);
  EXPECT_EQ(a.grad()[1], 7.0);
  EXPECT_EQ(b.grad()[0], 2.0);
  EXPECT_EQ(b.grad()[1], 3.0);
}

TEST(TensorTest, GradientAccumulatesAcrossBackwardCalls) {
  Tensor a = Tensor::FromData({1.0}, 1, 1, true);
  Tensor l1 = Scale(a, 3.0);
  l1.Backward();
  EXPECT_EQ(a.grad()[0], 3.0);
  Tensor l2 = Scale(a, 4.0);
  l2.Backward();
  EXPECT_EQ(a.grad()[0], 7.0);
  a.ZeroGrad();
  EXPECT_EQ(a.grad()[0], 0.0);
}

TEST(TensorTest, SharedSubexpressionGetsBothPaths) {
  // loss = x*x (via two separate Mul args referencing same tensor).
  Tensor x = Tensor::FromData({3.0}, 1, 1, true);
  Tensor loss = Sum(Mul(x, x));
  loss.Backward();
  EXPECT_EQ(x.grad()[0], 6.0);  // d(x^2)/dx = 2x
}

TEST(TensorTest, GradCheckMatMul) {
  Rng rng(3);
  Tensor a = Tensor::Uniform(3, 4, 1.0, &rng);
  Tensor b = Tensor::Uniform(4, 2, 1.0, &rng);
  CheckGradients({a, b}, [&] { return Sum(MatMul(a, b)); });
}

TEST(TensorTest, GradCheckElementwiseChain) {
  Rng rng(4);
  Tensor a = Tensor::Uniform(2, 3, 1.0, &rng);
  Tensor b = Tensor::Uniform(2, 3, 1.0, &rng);
  CheckGradients({a, b}, [&] {
    return Mean(Mul(Sub(a, b), Add(a, Scale(b, 0.5))));
  });
}

TEST(TensorTest, GradCheckActivations) {
  Rng rng(5);
  Tensor a = Tensor::Uniform(2, 4, 2.0, &rng);
  CheckGradients({a}, [&] { return Sum(Sigmoid(a)); });
  CheckGradients({a}, [&] { return Sum(Tanh(a)); });
  // ReLU: shift away from 0 to keep the finite difference valid.
  Tensor shifted = Tensor::Uniform(2, 4, 1.0, &rng);
  for (auto& v : shifted.mutable_data()) v += (v >= 0 ? 0.5 : -0.5);
  CheckGradients({shifted}, [&] { return Sum(ReLU(shifted)); });
}

TEST(TensorTest, GradCheckConcatAndSlice) {
  Rng rng(6);
  Tensor a = Tensor::Uniform(2, 3, 1.0, &rng);
  Tensor b = Tensor::Uniform(2, 2, 1.0, &rng);
  CheckGradients({a, b}, [&] {
    Tensor cat = ConcatCols({a, b});
    return Sum(Mul(SliceCols(cat, 1, 3), SliceCols(cat, 2, 3)));
  });
  Tensor c = Tensor::Uniform(1, 3, 1.0, &rng);
  CheckGradients({a, c}, [&] { return Sum(ConcatRows({a, c})); });
}

TEST(TensorTest, GradCheckGatherAndPooling) {
  Rng rng(7);
  Tensor table = Tensor::Uniform(5, 3, 1.0, &rng);
  CheckGradients({table}, [&] {
    Tensor rows = GatherRows(table, {0, 2, 2, 4});
    return Sum(Mul(MeanRows(rows), MeanRows(rows)));
  });
}

TEST(TensorTest, GradCheckConv1D) {
  Rng rng(8);
  Tensor input = Tensor::Uniform(6, 4, 1.0, &rng);
  Tensor kernel = Tensor::Uniform(1, 3, 1.0, &rng);
  Tensor bias = Tensor::Uniform(1, 1, 1.0, &rng);
  CheckGradients({input, kernel, bias},
                 [&] { return Mean(Conv1D(input, kernel, bias)); });
}

TEST(TensorTest, GradCheckBatchNorm) {
  Rng rng(9);
  Tensor input = Tensor::Uniform(4, 3, 1.0, &rng);
  Tensor gamma = Tensor::Full(1, 1, 1.3, true);
  Tensor beta = Tensor::Full(1, 1, -0.2, true);
  CheckGradients(
      {input, gamma, beta},
      [&] {
        Tensor out = BatchNorm(input, gamma, beta);
        return Sum(Mul(out, out));
      },
      1e-4);
}

TEST(TensorTest, GradCheckMseLoss) {
  Rng rng(10);
  Tensor pred = Tensor::Uniform(3, 1, 1.0, &rng);
  Tensor target = Tensor::FromData({0.5, -0.2, 0.9}, 3, 1);
  CheckGradients({pred}, [&] { return MseLoss(pred, target); });
}

TEST(TensorTest, BatchNormNormalizes) {
  Rng rng(11);
  Tensor input = Tensor::Uniform(8, 4, 3.0, &rng);
  Tensor gamma = Tensor::Full(1, 1, 1.0, true);
  Tensor beta = Tensor::Zeros(1, 1, true);
  Tensor out = BatchNorm(input, gamma, beta);
  Scalar mean = 0;
  for (Scalar v : out.data()) mean += v;
  mean /= static_cast<Scalar>(out.size());
  Scalar var = 0;
  for (Scalar v : out.data()) var += (v - mean) * (v - mean);
  var /= static_cast<Scalar>(out.size());
  EXPECT_NEAR(mean, 0.0, 1e-9);
  EXPECT_NEAR(var, 1.0, 1e-3);
}

TEST(ModulesTest, LinearShapesAndGradCheck) {
  Rng rng(12);
  Linear layer(4, 3, &rng);
  Tensor x = Tensor::Uniform(2, 4, 1.0, &rng);
  Tensor y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 2u);
  EXPECT_EQ(y.cols(), 3u);
  EXPECT_EQ(layer.NumParameters(), 4u * 3u + 3u);
  CheckGradients(layer.Parameters(),
                 [&] { return Sum(layer.Forward(x)); });
}

TEST(ModulesTest, EmbeddingLookupAndGradCheck) {
  Rng rng(13);
  Embedding emb(10, 4, &rng);
  Tensor rows = emb.Forward({1, 3, 3});
  EXPECT_EQ(rows.rows(), 3u);
  EXPECT_EQ(rows.cols(), 4u);
  // Row 1 equals the table's row 1.
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(rows.at(0, j), emb.Parameters()[0].at(1, j));
  }
  CheckGradients(emb.Parameters(),
                 [&] { return Sum(emb.Forward({0, 2, 2, 9})); });
}

TEST(ModulesTest, LstmShapesAndGradCheck) {
  Rng rng(14);
  Lstm lstm(3, 5, &rng);
  Tensor seq = Tensor::Uniform(4, 3, 1.0, &rng);
  Tensor h = lstm.Forward(seq);
  EXPECT_EQ(h.rows(), 1u);
  EXPECT_EQ(h.cols(), 5u);
  CheckGradients(
      lstm.Parameters(), [&] { return Sum(lstm.Forward(seq)); }, 1e-4);
}

TEST(ModulesTest, LstmEmptySequenceReturnsZeros) {
  Rng rng(15);
  Lstm lstm(3, 4, &rng);
  Tensor h = lstm.Forward(Tensor::Zeros(0, 3));
  for (Scalar v : h.data()) EXPECT_EQ(v, 0.0);
}

TEST(ModulesTest, LstmIsOrderSensitive) {
  Rng rng(16);
  Lstm lstm(2, 4, &rng);
  Tensor ab = Tensor::FromData({1, 0, 0, 1}, 2, 2);
  Tensor ba = Tensor::FromData({0, 1, 1, 0}, 2, 2);
  Tensor ha = lstm.Forward(ab);
  Tensor hb = lstm.Forward(ba);
  Scalar diff = 0;
  for (size_t j = 0; j < ha.size(); ++j) {
    diff += std::fabs(ha.data()[j] - hb.data()[j]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(ModulesTest, ConvBlockGradCheck) {
  Rng rng(17);
  ConvBlock block(&rng);
  Tensor x = Tensor::Uniform(5, 3, 1.0, &rng);
  Tensor y = block.Forward(x);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 3u);
  CheckGradients(
      block.Parameters(), [&] { return Sum(block.Forward(x)); }, 1e-4);
}

TEST(ModulesTest, MlpDqnShape) {
  // The paper's DQN: four FC layers with 16/64/16/1 neurons, ReLU each.
  Rng rng(18);
  Mlp dqn({8, 16, 64, 16, 1}, &rng);
  Tensor x = Tensor::Uniform(1, 8, 1.0, &rng);
  Tensor q = dqn.Forward(x);
  EXPECT_EQ(q.size(), 1u);
  CheckGradients(
      dqn.Parameters(), [&] { return Sum(dqn.Forward(x)); }, 1e-4);
}

TEST(ModulesTest, MlpOneRowTrainingMatchesFullPass) {
  // A row-wise network's Q(e,a) reads only row a, so taping just that
  // row must train exactly like taping the whole (n x 8) matrix and
  // selecting row a: the skipped rows only add zeros to the weight
  // gradients. Checked bitwise over a run of Adam steps with 16
  // one-row subgraphs per step, as RLView's DQN trains.
  Rng rng(20);
  Mlp full({8, 16, 64, 16, 1}, &rng), row({8, 16, 64, 16, 1}, &rng);
  row.CopyFrom(full);
  Adam full_adam(full.Parameters()), row_adam(row.Parameters());
  const size_t n = 40, dim = 8, batch = 16;
  for (int step = 0; step < 20; ++step) {
    std::vector<Tensor> full_preds, row_preds, targets;
    for (size_t b = 0; b < batch; ++b) {
      std::vector<Scalar> phis(n * dim);
      for (Scalar& v : phis) v = rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0, 1);
      const size_t action =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
      full_preds.push_back(
          SelectRow(full.Forward(Tensor::FromData(phis, n, dim)), action));
      std::vector<Scalar> one(phis.begin() + action * dim,
                              phis.begin() + (action + 1) * dim);
      row_preds.push_back(row.Forward(Tensor::FromData(one, 1, dim)));
      targets.push_back(Tensor::Full(1, 1, rng.Uniform(-1, 1)));
    }
    full_adam.ZeroGrad();
    row_adam.ZeroGrad();
    Tensor full_loss = MseLoss(ConcatRows(full_preds), ConcatRows(targets));
    Tensor row_loss = MseLoss(ConcatRows(row_preds), ConcatRows(targets));
    ASSERT_EQ(full_loss.item(), row_loss.item()) << "step " << step;
    full_loss.Backward();
    row_loss.Backward();
    const std::vector<Tensor> fp = full.Parameters(), rp = row.Parameters();
    for (size_t i = 0; i < fp.size(); ++i) {
      ASSERT_EQ(fp[i].grad(), rp[i].grad())
          << "step " << step << " param " << i;
    }
    full_adam.Step();
    row_adam.Step();
  }
  const std::vector<Tensor> fp = full.Parameters(), rp = row.Parameters();
  for (size_t i = 0; i < fp.size(); ++i) EXPECT_EQ(fp[i].data(), rp[i].data());
}

TEST(ModulesTest, MlpCopyFrom) {
  Rng rng(19);
  Mlp a({3, 4, 1}, &rng), b({3, 4, 1}, &rng);
  Tensor x = Tensor::Uniform(1, 3, 1.0, &rng);
  b.CopyFrom(a);
  EXPECT_EQ(a.Forward(x).item(), b.Forward(x).item());
}

TEST(OptimizerTest, AdamMinimizesQuadratic) {
  // minimize (w - 3)^2: w should converge to 3.
  Tensor w = Tensor::FromData({0.0}, 1, 1, true);
  Tensor target = Tensor::FromData({3.0}, 1, 1);
  Adam::Options opts;
  opts.lr = 0.1;
  Adam adam({w}, opts);
  for (int i = 0; i < 300; ++i) {
    adam.ZeroGrad();
    Tensor loss = MseLoss(w, target);
    loss.Backward();
    adam.Step();
  }
  EXPECT_NEAR(w.data()[0], 3.0, 1e-3);
}

TEST(OptimizerTest, SgdMinimizesQuadratic) {
  Tensor w = Tensor::FromData({-2.0}, 1, 1, true);
  Tensor target = Tensor::FromData({1.5}, 1, 1);
  Sgd sgd({w}, 0.2);
  for (int i = 0; i < 200; ++i) {
    sgd.ZeroGrad();
    MseLoss(w, target).Backward();
    sgd.Step();
  }
  EXPECT_NEAR(w.data()[0], 1.5, 1e-4);
}

TEST(OptimizerTest, LinearRegressionLearns) {
  // Learn y = 2x1 - x2 + 0.5 with a Linear layer.
  Rng rng(20);
  Linear layer(2, 1, &rng);
  Adam::Options opts;
  opts.lr = 0.05;
  Adam adam(layer.Parameters(), opts);
  for (int step = 0; step < 500; ++step) {
    std::vector<Scalar> xs, ys;
    for (int i = 0; i < 16; ++i) {
      Scalar x1 = rng.Uniform(-1, 1), x2 = rng.Uniform(-1, 1);
      xs.push_back(x1);
      xs.push_back(x2);
      ys.push_back(2 * x1 - x2 + 0.5);
    }
    Tensor x = Tensor::FromData(xs, 16, 2);
    Tensor y = Tensor::FromData(ys, 16, 1);
    adam.ZeroGrad();
    MseLoss(layer.Forward(x), y).Backward();
    adam.Step();
  }
  const auto& w = layer.Parameters()[0].data();
  const auto& b = layer.Parameters()[1].data();
  EXPECT_NEAR(w[0], 2.0, 0.05);
  EXPECT_NEAR(w[1], -1.0, 0.05);
  EXPECT_NEAR(b[0], 0.5, 0.05);
}

}  // namespace
}  // namespace nn
}  // namespace autoview
