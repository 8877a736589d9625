#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
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
  if (!values.empty()) {
    std::memcpy(bits.data(), values.data(), values.size() * sizeof(uint64_t));
  }
  return bits;
}

/// The oracle for nn::Gemm: MatMul's original forward loop, i-p-j over
/// a zero-filled output, skipping a[i][p] == 0.0; then, when given, the
/// bias add and ReLU clamp as Add and ReLU apply them.
std::vector<nn::Scalar> NaiveGemm(const std::vector<nn::Scalar>& a,
                                  const std::vector<nn::Scalar>& b, size_t m,
                                  size_t k, size_t n,
                                  const nn::Scalar* bias = nullptr,
                                  bool relu = false) {
  std::vector<nn::Scalar> out(m * n, 0.0);
  for (size_t i = 0; i < m; ++i) {
    for (size_t p = 0; p < k; ++p) {
      const nn::Scalar aip = a[i * k + p];
      if (aip == 0.0) continue;
      for (size_t j = 0; j < n; ++j) out[i * n + j] += aip * b[p * n + j];
    }
  }
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      nn::Scalar& v = out[i * n + j];
      if (bias != nullptr) v = v + bias[j];
      if (relu) v = v > 0 ? v : 0.0;
    }
  }
  return out;
}

std::vector<nn::Scalar> RunGemm(const std::vector<nn::Scalar>& a,
                                const std::vector<nn::Scalar>& b, size_t m,
                                size_t k, size_t n,
                                const nn::Scalar* bias = nullptr,
                                bool relu = false) {
  std::vector<nn::Scalar> out(m * n, -1.0);
  nn::Gemm(a.data(), m, k, b.data(), n, out.data(), bias, relu);
  return out;
}

struct GemmCase {
  size_t m, k, n;
  std::vector<nn::Scalar> a, b, bias;
};

/// a has ~30% exact zeros (post-ReLU-like), b and bias are dense.
GemmCase RandomGemmCase(Rng* rng, size_t m, size_t k, size_t n) {
  GemmCase c{m, k, n, std::vector<nn::Scalar>(m * k),
             std::vector<nn::Scalar>(k * n), std::vector<nn::Scalar>(n)};
  for (auto& v : c.a) v = rng->Bernoulli(0.3) ? 0.0 : rng->Uniform(-2.0, 2.0);
  for (auto& v : c.b) v = rng->Uniform(-2.0, 2.0);
  for (auto& v : c.bias) v = rng->Uniform(-1.0, 1.0);
  return c;
}

/// Gemm with and without the fused bias/ReLU store, and the tape's
/// MatMul, all against the naive loop, bit for bit.
void ExpectGemmMatchesNaive(const GemmCase& c) {
  SCOPED_TRACE(::testing::Message() << c.m << "x" << c.k << "x" << c.n);
  EXPECT_EQ(Bits(RunGemm(c.a, c.b, c.m, c.k, c.n)),
            Bits(NaiveGemm(c.a, c.b, c.m, c.k, c.n)));
  EXPECT_EQ(Bits(RunGemm(c.a, c.b, c.m, c.k, c.n, c.bias.data())),
            Bits(NaiveGemm(c.a, c.b, c.m, c.k, c.n, c.bias.data())));
  EXPECT_EQ(Bits(RunGemm(c.a, c.b, c.m, c.k, c.n, c.bias.data(), true)),
            Bits(NaiveGemm(c.a, c.b, c.m, c.k, c.n, c.bias.data(), true)));
  nn::Tensor tape = nn::MatMul(nn::Tensor::FromData(c.a, c.m, c.k),
                               nn::Tensor::FromData(c.b, c.k, c.n));
  EXPECT_EQ(Bits(tape.data()), Bits(NaiveGemm(c.a, c.b, c.m, c.k, c.n)));
}

TEST(NoGradTest, GemmBitIdenticalToNaiveLoop) {
  Rng rng(17);
  // Output widths below, at and past the kernel's 16-, 8- and 4-column
  // chunks; input widths below, at and past its 64-input compaction
  // block, so rows take one, two and three passes.
  for (size_t n : {1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 29, 31, 32, 33, 64}) {
    for (size_t k : {1, 7, 16, 64, 65, 130}) {
      ExpectGemmMatchesNaive(RandomGemmCase(&rng, 3, k, n));
    }
  }
  ExpectGemmMatchesNaive(RandomGemmCase(&rng, 1, 1, 1));
  ExpectGemmMatchesNaive(RandomGemmCase(&rng, 17, 64, 16));
  // Empty dimensions: no rows, and no inputs (the output is 0.0 + bias).
  ExpectGemmMatchesNaive(RandomGemmCase(&rng, 0, 8, 5));
  ExpectGemmMatchesNaive(RandomGemmCase(&rng, 2, 0, 9));
}

TEST(NoGradTest, GemmPropagatesNanInfAndSignedZeroLikeTheNaiveLoop) {
  Rng rng(19);
  const nn::Scalar inf = std::numeric_limits<nn::Scalar>::infinity();
  const nn::Scalar nan = std::nan("");
  for (size_t n : {1, 7, 8, 9, 15, 16, 17, 64}) {
    for (size_t k : {9, 70}) {
      GemmCase c = RandomGemmCase(&rng, 6, k, n);
      // Row 0: two NaN inputs. The zero-skip must not skip them (NaN
      // compares != 0), so the whole row comes out NaN.
      c.a[2] = nan;
      c.a[k - 1] = nan;
      // Row 1: +inf and -inf inputs.
      c.a[k + 1] = inf;
      c.a[k + 7] = -inf;
      // Row 2: every input -0.0 (skipped like +0.0: the output is +0.0).
      std::fill(c.a.begin() + 2 * k, c.a.begin() + 3 * k, -0.0);
      // Row 3: all +0.0.
      std::fill(c.a.begin() + 3 * k, c.a.begin() + 4 * k, 0.0);
      // Row 4: a single 1.0 that lands on an infinite and a NaN weight.
      std::fill(c.a.begin() + 4 * k, c.a.begin() + 5 * k, 0.0);
      c.a[4 * k + 3] = 1.0;
      c.b[3 * n] = inf;
      c.b[3 * n + n - 1] = nan;
      // Row 5: a -0.0 next to nonzero inputs; weights hold -0.0 too.
      c.a[5 * k] = -0.0;
      c.b[n] = -0.0;
      ExpectGemmMatchesNaive(c);

      const std::vector<nn::Scalar> out = RunGemm(c.a, c.b, c.m, k, n);
      for (size_t j = 0; j < n; ++j) {
        EXPECT_TRUE(std::isnan(out[j]));
        EXPECT_EQ(Bits({out[2 * n + j]}), Bits({0.0}));
        EXPECT_EQ(Bits({out[3 * n + j]}), Bits({0.0}));
      }
      if (n > 1) {  // with one column the NaN weight overwrote the inf
        EXPECT_EQ(out[4 * n], inf);
      }
      EXPECT_TRUE(std::isnan(out[4 * n + n - 1]));
      // The ReLU clamp maps NaN to 0.0 the way ReLU's `x > 0` test does.
      const std::vector<nn::Scalar> clamped =
          RunGemm(c.a, c.b, c.m, k, n, c.bias.data(), true);
      for (size_t j = 0; j < n; ++j) EXPECT_EQ(Bits({clamped[j]}), Bits({0.0}));
    }
  }
}

/// Mlp::Forward on the tape, to compare MlpInference against.
std::vector<nn::Scalar> TapeForward(const nn::Mlp& mlp,
                                    const std::vector<nn::Scalar>& batch,
                                    size_t rows, size_t in) {
  return mlp.Forward(nn::Tensor::FromData(batch, rows, in)).data();
}

TEST(NoGradTest, MlpInferenceMatchesForwardAndTracksUpdates) {
  // The RLView Q-net (8/16/64/16/1), its dueling value head, and a
  // relu_last network.
  struct Shape {
    std::vector<size_t> sizes;
    bool relu_last;
  };
  const Shape shapes[] = {{{8, 16, 64, 16, 1}, false},
                          {{8, 16, 16, 1}, false},
                          {{8, 16, 64, 16, 1}, true},
                          {{5, 33, 3}, true}};
  Rng rng(23);
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.sizes.size());
    nn::Mlp mlp(shape.sizes, &rng, shape.relu_last);
    nn::MlpInference inference(&mlp);
    const size_t in = shape.sizes.front();
    const size_t rows = 40;
    std::vector<nn::Scalar> batch(rows * in);
    for (auto& v : batch) {
      v = rng.Bernoulli(0.3) ? 0.0 : rng.Uniform(-1.5, 1.5);
    }
    EXPECT_EQ(Bits(inference.Forward(batch.data(), rows)),
              Bits(TapeForward(mlp, batch, rows, in)));

    // The evaluator reads the live parameters: an optimizer step and a
    // CopyFrom both show up in the next call.
    nn::Adam adam(mlp.Parameters(), {});
    for (int step = 0; step < 3; ++step) {
      nn::Tensor loss =
          nn::Mean(mlp.Forward(nn::Tensor::FromData(batch, rows, in)));
      mlp.ZeroGrad();
      loss.Backward();
      adam.Step();
      EXPECT_EQ(Bits(inference.Forward(batch.data(), rows)),
                Bits(TapeForward(mlp, batch, rows, in)));
    }
    nn::Mlp other(shape.sizes, &rng, shape.relu_last);
    mlp.CopyFrom(other);
    EXPECT_EQ(Bits(inference.Forward(batch.data(), rows)),
              Bits(TapeForward(other, batch, rows, in)));
    // Single-row calls reuse the same buffers.
    EXPECT_EQ(Bits(inference.Forward(batch.data(), 1)),
              Bits(TapeForward(mlp, {batch.begin(), batch.begin() + in}, 1,
                               in)));
  }
}

TEST(NoGradTest, OpsUnderGuardKeepBitsAndRecordNoGraph) {
  Rng rng(29);
  const nn::Tensor a = nn::Tensor::Uniform(3, 5, 1.0, &rng);
  const nn::Tensor b = nn::Tensor::Uniform(5, 4, 1.0, &rng);
  const nn::Tensor c = nn::Tensor::Uniform(3, 5, 1.0, &rng);
  const nn::Tensor row = nn::Tensor::Uniform(1, 5, 1.0, &rng);
  const nn::Tensor kernel = nn::Tensor::Uniform(1, 3, 1.0, &rng);
  const nn::Tensor one = nn::Tensor::Full(1, 1, 0.5, true);
  const std::vector<std::function<nn::Tensor()>> ops = {
      [&] { return nn::MatMul(a, b); },
      [&] { return nn::Add(a, c); },
      [&] { return nn::Add(a, row); },
      [&] { return nn::Sub(a, c); },
      [&] { return nn::Mul(a, c); },
      [&] { return nn::Scale(a, -2.0); },
      [&] { return nn::ReLU(a); },
      [&] { return nn::Sigmoid(a); },
      [&] { return nn::Tanh(a); },
      [&] { return nn::ConcatCols({a, c}); },
      [&] { return nn::ConcatRows({a, row}); },
      [&] { return nn::GatherRows(a, {2, 0, 2}); },
      [&] { return nn::SliceCols(a, 1, 3); },
      [&] { return nn::MeanRows(a); },
      [&] { return nn::Sum(a); },
      [&] { return nn::MseLoss(a, c); },
      [&] { return nn::Conv1D(a, kernel, one); },
      [&] { return nn::BatchNorm(a, one, one); },
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE(i);
    const nn::Tensor taped = ops[i]();
    ASSERT_NE(taped.node()->backward, nullptr);
    EXPECT_FALSE(taped.node()->parents.empty());
    nn::Tensor untaped;
    {
      nn::NoGradGuard guard;
      untaped = ops[i]();
    }
    EXPECT_EQ(Bits(untaped.data()), Bits(taped.data()));
    EXPECT_TRUE(untaped.node()->parents.empty());
    EXPECT_EQ(untaped.node()->backward, nullptr);
    EXPECT_TRUE(untaped.grad().empty());
    EXPECT_FALSE(untaped.requires_grad());
  }
}

}  // namespace
}  // namespace autoview
