#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "costmodel/encoders.h"
#include "nn/modules.h"
#include "nn/optimizer.h"

namespace autoview {
namespace {

using nn::Tensor;

TEST(StringEncoderTest, FixedLengthOutput) {
  Rng rng(3);
  StringEncoder enc(8, &rng);
  Tensor a = enc.Forward("short");
  Tensor b = enc.Forward("a much longer string with spaces");
  EXPECT_EQ(a.rows(), 1u);
  EXPECT_EQ(a.cols(), 8u);
  EXPECT_EQ(b.cols(), 8u);
}

TEST(StringEncoderTest, EmptyStringIsZeros) {
  Rng rng(3);
  StringEncoder enc(8, &rng);
  Tensor z = enc.Forward("");
  for (nn::Scalar v : z.data()) EXPECT_EQ(v, 0.0);
}

TEST(StringEncoderTest, DifferentStringsDifferentVectors) {
  Rng rng(3);
  StringEncoder enc(8, &rng);
  Tensor a = enc.Forward("1010");
  Tensor b = enc.Forward("1011");
  double diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff += std::fabs(a.data()[i] - b.data()[i]);
  }
  EXPECT_GT(diff, 1e-9);
}

TEST(StringEncoderTest, NoCnnModeHasFewerParameters) {
  Rng rng(3);
  StringEncoder with_cnn(8, &rng, /*use_cnn=*/true);
  StringEncoder without(8, &rng, /*use_cnn=*/false, /*trainable_chars=*/false);
  EXPECT_GT(with_cnn.Parameters().size(), without.Parameters().size());
  EXPECT_TRUE(without.Parameters().empty());  // frozen chars, no conv
}

TEST(StringEncoderTest, SimilarStringsCloserThanDissimilar) {
  // The char-CNN should map '1010' nearer to '1011' than to 'zzzzzz'
  // in most random initializations — a soft locality property of the
  // architecture (shared char embeddings + local convolutions).
  size_t closer = 0;
  for (uint64_t seed = 1; seed <= 7; ++seed) {
    Rng rng(seed);
    StringEncoder enc(12, &rng);
    auto dist = [&](const Tensor& x, const Tensor& y) {
      double d = 0;
      for (size_t i = 0; i < x.size(); ++i) {
        d += (x.data()[i] - y.data()[i]) * (x.data()[i] - y.data()[i]);
      }
      return d;
    };
    Tensor a = enc.Forward("1010");
    Tensor b = enc.Forward("1011");
    Tensor c = enc.Forward("zzzzzz");
    if (dist(a, b) < dist(a, c)) ++closer;
  }
  EXPECT_GE(closer, 5u);
}

TEST(PlanEncoderTest, EncodesVariableLengthPlans) {
  Rng rng(4);
  KeywordVocab vocab;
  vocab.Add("Scan");
  vocab.Add("Filter");
  vocab.Add("t");
  nn::Embedding emb(vocab.size() + 4, 8, &rng);
  StringEncoder strenc(8, &rng);
  PlanEncoder enc(&emb, &strenc, &vocab, 16, &rng);
  Tensor small = enc.Forward({{"Scan", "t"}});
  Tensor big = enc.Forward(
      {{"Filter", "AND", "EQ", "dt", "'1010'"}, {"Scan", "t"}});
  EXPECT_EQ(small.cols(), 16u);
  EXPECT_EQ(big.cols(), 16u);
  EXPECT_EQ(enc.output_dim(), 16u);
  // Empty plan yields zeros of the right shape.
  Tensor empty = enc.Forward({});
  EXPECT_EQ(empty.cols(), 16u);
}

TEST(PlanEncoderTest, PoolingModeChangesOutputDim) {
  Rng rng(4);
  KeywordVocab vocab;
  nn::Embedding emb(4, 8, &rng);
  StringEncoder strenc(8, &rng);
  PlanEncoder pooled(&emb, &strenc, &vocab, 16, &rng, /*use_sequence=*/false);
  EXPECT_EQ(pooled.output_dim(), 8u);  // embedding dim, not LSTM hidden
  EXPECT_TRUE(pooled.Parameters().empty());
  Tensor out = pooled.Forward({{"Scan", "t"}});
  EXPECT_EQ(out.cols(), 8u);
}

TEST(SchemaEncoderTest, PoolsKeywordEmbeddings) {
  Rng rng(4);
  KeywordVocab vocab;
  const size_t id = vocab.Add("users");
  nn::Embedding emb(vocab.size() + 2, 6, &rng);
  SchemaEncoder enc(&emb, &vocab);
  Tensor one = enc.Forward({"users"});
  // Pooling one keyword returns its embedding row.
  for (size_t j = 0; j < 6; ++j) {
    EXPECT_EQ(one.at(0, j), emb.Parameters()[0].at(id, j));
  }
  Tensor empty = enc.Forward({});
  for (nn::Scalar v : empty.data()) EXPECT_EQ(v, 0.0);
}

TEST(AdamTest, WeightDecayShrinksWeights) {
  Tensor w = Tensor::FromData({10.0}, 1, 1, true);
  nn::Adam::Options opts;
  opts.lr = 0.1;
  opts.weight_decay = 1.0;
  nn::Adam adam({w}, opts);
  // Zero gradient, decay only.
  for (int i = 0; i < 50; ++i) {
    adam.ZeroGrad();
    adam.Step();
  }
  EXPECT_LT(std::fabs(w.data()[0]), 10.0);
}

// ---------------------------------------------------------------------
// No-grad inference fast path.

TEST(NoGradTest, GuardSkipsGraphButKeepsValues) {
  Rng rng(3);
  nn::Mlp mlp({6, 8, 1}, &rng);
  std::vector<nn::Scalar> input(2 * 6);
  for (auto& v : input) v = rng.Uniform(-1.0, 1.0);
  nn::Tensor x_grad = nn::Tensor::FromData(input, 2, 6);
  nn::Tensor with_graph = mlp.Forward(x_grad);

  ASSERT_FALSE(nn::InferenceMode());
  nn::Tensor no_graph;
  {
    nn::NoGradGuard guard;
    EXPECT_TRUE(nn::InferenceMode());
    nn::Tensor x = nn::Tensor::FromData(input, 2, 6);
    no_graph = mlp.Forward(x);
  }
  EXPECT_FALSE(nn::InferenceMode());
  // Bit-identical values...
  EXPECT_EQ(no_graph.data(), with_graph.data());
  // ...but no autograd bookkeeping: no grad storage, no graph, and the
  // result never requires grad even though the parameters do.
  EXPECT_TRUE(no_graph.grad().empty());
  EXPECT_TRUE(no_graph.node()->parents.empty());
  EXPECT_FALSE(no_graph.requires_grad());
  EXPECT_TRUE(with_graph.requires_grad());
}

/// Bit patterns of `values`, so NaN results compare exactly too.
std::vector<uint64_t> Bits(const std::vector<nn::Scalar>& values) {
  std::vector<uint64_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(uint64_t));
  return bits;
}

/// MatMulTB of (m x k) `a` times (k x n) `b` (handed over transposed).
std::vector<nn::Scalar> RunMatMulTB(const std::vector<nn::Scalar>& a,
                                    const std::vector<nn::Scalar>& b,
                                    size_t m, size_t k, size_t n) {
  std::vector<nn::Scalar> bt(n * k);
  for (size_t p = 0; p < k; ++p) {
    for (size_t j = 0; j < n; ++j) bt[j * k + p] = b[p * n + j];
  }
  std::vector<nn::Scalar> out(m * n, -1.0);
  nn::MatMulTB(a.data(), m, k, bt.data(), n, out.data());
  return out;
}

TEST(NoGradTest, MatMulTBBitIdenticalToMatMul) {
  struct Case {
    size_t m, k, n;
    std::vector<nn::Scalar> a, b;
  };
  Rng rng(17);
  const auto random_case = [&rng](size_t m, size_t k, size_t n) {
    Case c{m, k, n, std::vector<nn::Scalar>(m * k),
           std::vector<nn::Scalar>(k * n)};
    for (auto& v : c.a) v = rng.Bernoulli(0.3) ? 0.0 : rng.Uniform(-2.0, 2.0);
    for (auto& v : c.b) v = rng.Uniform(-2.0, 2.0);
    return c;
  };
  std::vector<Case> cases;
  // Shapes straddling the 4-column tile: k and n below, at, and past
  // multiples of it, ragged tails on both dimensions.
  const size_t shapes[][3] = {{5, 7, 9},  {1, 1, 1},  {1, 3, 1},
                              {2, 4, 4},  {3, 7, 5},  {5, 16, 8},
                              {8, 17, 9}, {4, 64, 3}, {7, 33, 13}};
  for (const auto& shape : shapes) {
    cases.push_back(random_case(shape[0], shape[1], shape[2]));
  }
  // NaN/Inf rows: row 0 carries two NaNs, row 1 +/-inf. The zero-skip
  // must not skip them (NaN compares != 0), so row 0 comes out all NaN.
  Case nan_inf = random_case(3, 9, 5);
  nan_inf.a[2] = std::nan("");
  nan_inf.a[8] = std::nan("");
  nan_inf.a[9 + 1] = std::numeric_limits<nn::Scalar>::infinity();
  nan_inf.a[9 + 7] = -std::numeric_limits<nn::Scalar>::infinity();
  cases.push_back(nan_inf);
  // An all-zero row (exact +0.0 out) and a unit row (picks out row 0 of
  // b bit-exactly).
  Case zero_unit = random_case(2, 8, 3);
  std::fill(zero_unit.a.begin(), zero_unit.a.end(), 0.0);
  zero_unit.a[8] = 1.0;
  cases.push_back(zero_unit);

  std::vector<std::vector<nn::Scalar>> outs;
  for (const Case& c : cases) {
    nn::Tensor ref = nn::MatMul(nn::Tensor::FromData(c.a, c.m, c.k),
                                nn::Tensor::FromData(c.b, c.k, c.n));
    outs.push_back(RunMatMulTB(c.a, c.b, c.m, c.k, c.n));
    EXPECT_EQ(Bits(outs.back()), Bits(ref.data()))
        << c.m << "x" << c.k << "x" << c.n;
  }
  const std::vector<nn::Scalar>& nan_out = outs[outs.size() - 2];
  for (size_t j = 0; j < nan_inf.n; ++j) EXPECT_TRUE(std::isnan(nan_out[j]));
  const std::vector<nn::Scalar>& unit_out = outs.back();
  EXPECT_EQ(Bits({unit_out.begin(), unit_out.begin() + 3}),
            Bits({0.0, 0.0, 0.0}));
  EXPECT_EQ(Bits({unit_out.begin() + 3, unit_out.end()}),
            Bits({zero_unit.b.begin(), zero_unit.b.begin() + 3}));
}

TEST(NoGradTest, MlpInferenceMatchesForwardAndRefreshes) {
  Rng rng(23);
  nn::Mlp mlp({8, 16, 16, 1}, &rng);
  nn::MlpInference inference(&mlp);
  std::vector<nn::Scalar> batch(10 * 8);
  for (auto& v : batch) v = rng.Uniform(-1.5, 1.5);

  nn::Tensor ref = mlp.Forward(nn::Tensor::FromData(batch, 10, 8));
  EXPECT_EQ(inference.Forward(batch.data(), 10), ref.data());

  // Stale snapshots must be refreshable after a parameter update.
  nn::Adam adam(mlp.Parameters(), {});
  nn::Tensor loss =
      nn::Mean(mlp.Forward(nn::Tensor::FromData(batch, 10, 8)));
  mlp.ZeroGrad();
  loss.Backward();
  adam.Step();
  inference.Refresh();
  nn::Tensor after = mlp.Forward(nn::Tensor::FromData(batch, 10, 8));
  EXPECT_EQ(inference.Forward(batch.data(), 10), after.data());
  // Single-row calls reuse the same buffers.
  nn::Tensor one = mlp.Forward(nn::Tensor::FromData(
      std::vector<nn::Scalar>(batch.begin(), batch.begin() + 8), 1, 8));
  EXPECT_EQ(inference.Forward(batch.data(), 1), one.data());
}

}  // namespace
}  // namespace autoview
