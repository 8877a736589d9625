// Golden pins for the learned models' arithmetic. RLView's trained DQN
// weights and chosen views (plain, dueling, and with a target network),
// the Wide-Deep estimator's per-epoch training losses and batched
// estimates, and an Mlp forward and backward pass on the Q-net shape are
// each reduced to one FNV-1a digest over their exact bit patterns. The
// forward GEMM, the tape ops and the no-grad inference path must
// reproduce every float operation of the reference in the same order, so
// any change to them that moves a single bit moves a digest. The
// generators feed the inputs too, so an intended generator or model
// change also moves them; recapture them only then, never to absorb an
// nn change. The digests assume plain IEEE double arithmetic with no
// fused multiply-add (the project's default flags on x86-64).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/autoview.h"
#include "costmodel/wide_deep.h"
#include "generators.h"
#include "nn/modules.h"
#include "select/rlview.h"
#include "workload/generator.h"

namespace autoview {
namespace {

using testing::RandomSparseProblem;

class Fnv64 {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
  void Double(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    U64(bits);
  }
  void Doubles(const std::vector<double>& values) {
    U64(values.size());
    for (double v : values) Double(v);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Digest of an RLView run: every trained weight, the chosen z, the
/// solution's utility and the per-step utility trace.
uint64_t DigestRlView(bool dueling, size_t target_sync_every) {
  const MvsProblem p = RandomSparseProblem(20, 40, /*seed=*/11, 0.1,
                                           /*negative_fraction=*/0.1);
  RLViewSelector::Options o;
  o.seed = 21;
  o.init_iterations = 4;
  o.episodes = 6;
  o.memory_capacity = 64;
  o.dueling = dueling;
  o.target_sync_every = target_sync_every;
  RLViewSelector selector(o);
  Result<MvsSolution> solution = selector.Select(p);
  EXPECT_TRUE(solution.ok());
  if (!solution.ok()) return 0;
  Fnv64 fnv;
  EXPECT_FALSE(selector.trained_weights().empty());
  for (const std::vector<double>& tensor : selector.trained_weights()) {
    fnv.Doubles(tensor);
  }
  for (bool zj : solution.value().z) fnv.U64(zj ? 1 : 0);
  fnv.Double(solution.value().utility);
  fnv.Doubles(selector.utility_trace());
  return fnv.value();
}

TEST(NnGoldenTest, RlViewPlainIsPinned) {
  EXPECT_EQ(DigestRlView(/*dueling=*/false, /*target_sync_every=*/0),
            0x8a37b0f93cef2117ULL);
}

TEST(NnGoldenTest, RlViewDuelingIsPinned) {
  EXPECT_EQ(DigestRlView(/*dueling=*/true, /*target_sync_every=*/0),
            0x9a00a22efaa66fb2ULL);
}

TEST(NnGoldenTest, RlViewTargetNetworkIsPinned) {
  EXPECT_EQ(DigestRlView(/*dueling=*/false, /*target_sync_every=*/3),
            0x5c3f8e13abe758e0ULL);
}

TEST(NnGoldenTest, WideDeepLossesAndEstimatesArePinned) {
  CloudWorkloadSpec spec;
  spec.name = "nn-golden";
  spec.projects = 2;
  spec.queries = 30;
  spec.min_rows = 200;
  spec.max_rows = 600;
  spec.subquery_pool = 6;
  spec.seed = 5;
  const GeneratedWorkload workload = GenerateCloudWorkload(spec);
  AutoViewSystem system(workload.db.get(), AutoViewOptions{});
  ASSERT_TRUE(system.LoadWorkload(workload.sql).ok());
  ASSERT_TRUE(system.BuildGroundTruth().ok());
  const std::vector<CostSample>& dataset = system.cost_dataset();
  ASSERT_GE(dataset.size(), 10u);

  WideDeepOptions opts = WideDeepOptions::Full();
  opts.epochs = 4;
  opts.batch_size = 8;
  WideDeepEstimator wd(&workload.db->catalog(), opts);
  ASSERT_TRUE(wd.Train(dataset).ok());
  ASSERT_EQ(wd.training_losses().size(), opts.epochs);

  Fnv64 losses;
  losses.Doubles(wd.training_losses());
  EXPECT_EQ(losses.value(), 0xe5152787a1745ea3ULL);
  Fnv64 estimates;
  estimates.Doubles(wd.EstimateBatch(dataset));
  EXPECT_EQ(estimates.value(), 0x91fbe2c6264586abULL);
}

TEST(NnGoldenTest, QNetShapeForwardIsPinned) {
  // The RLView advantage network's shape, on inputs with the feature
  // matrix's mix of exact zeros, ones and fractions.
  Rng rng(31);
  nn::Mlp mlp({8, 16, 64, 16, 1}, &rng);
  const size_t rows = 37;
  std::vector<nn::Scalar> x(rows * 8);
  for (auto& v : x) {
    v = rng.Bernoulli(0.3) ? 0.0 : rng.Bernoulli(0.2) ? 1.0
                                                      : rng.Uniform(-1.0, 1.0);
  }
  nn::Tensor out = mlp.Forward(nn::Tensor::FromData(x, rows, 8));
  nn::Tensor loss = nn::Mean(out);
  mlp.ZeroGrad();
  loss.Backward();
  Fnv64 fnv;
  fnv.Doubles(out.data());
  for (const nn::Tensor& param : mlp.Parameters()) fnv.Doubles(param.grad());
  EXPECT_EQ(fnv.value(), 0x97742d9709ae96fcULL);
}

}  // namespace
}  // namespace autoview
