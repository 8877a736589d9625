#include <gtest/gtest.h>

#include "ilp/branch_and_bound.h"
#include "ilp/problem.h"
#include "ilp/problem_index.h"
#include "select/iterview.h"
#include "select/rlview.h"
#include "select/selector.h"
#include "util/random.h"

namespace autoview {
namespace {

/// Small hand-crafted instance:
///   views: v0 (cheap, widely useful), v1 (expensive, one user),
///          v2 (overlaps v0, medium), v3 (useless: overhead > benefit).
MvsProblem TinyProblem() {
  MvsProblem p;
  p.overhead = {1.0, 5.0, 2.0, 4.0};
  p.benefit = {
      {3.0, 0.0, 2.5, 0.5},
      {2.0, 6.0, 0.0, 0.5},
      {4.0, 0.0, 1.0, 0.5},
  };
  p.overlap.assign(4, std::vector<bool>(4, false));
  p.overlap[0][2] = p.overlap[2][0] = true;
  p.frequency = {3, 1, 2, 3};
  return p;
}

/// Random instance generator for property-style sweeps.
MvsProblem RandomProblem(size_t nq, size_t nz, uint64_t seed) {
  Rng rng(seed);
  MvsProblem p;
  p.overhead.resize(nz);
  p.frequency.assign(nz, 0);
  for (auto& o : p.overhead) o = rng.Uniform(0.5, 5.0);
  p.benefit.assign(nq, std::vector<double>(nz, 0.0));
  for (size_t i = 0; i < nq; ++i) {
    for (size_t j = 0; j < nz; ++j) {
      if (rng.Bernoulli(0.4)) {
        p.benefit[i][j] = rng.Uniform(0.1, 3.0);
        ++p.frequency[j];
      }
    }
  }
  p.overlap.assign(nz, std::vector<bool>(nz, false));
  for (size_t j = 0; j < nz; ++j) {
    for (size_t k = j + 1; k < nz; ++k) {
      if (rng.Bernoulli(0.15)) p.overlap[j][k] = p.overlap[k][j] = true;
    }
  }
  return p;
}

/// Brute force over all 2^|Z| z assignments with exact Y-Opt.
double BruteForceOptimal(const MvsProblem& p) {
  const MvsProblemIndex index(p);
  YOptSolver yopt(&index);
  const size_t nz = p.num_views();
  double best = 0.0;
  for (uint64_t mask = 0; mask < (1ULL << nz); ++mask) {
    std::vector<bool> z(nz);
    for (size_t j = 0; j < nz; ++j) z[j] = (mask >> j) & 1;
    best = std::max(best, yopt.UtilityOf(z));
  }
  return best;
}

TEST(MvsProblemTest, ValidateCatchesBadShapes) {
  MvsProblem p = TinyProblem();
  EXPECT_TRUE(p.Validate().ok());
  p.overlap[1][2] = true;  // asymmetric
  EXPECT_FALSE(p.Validate().ok());
  p.overlap[1][2] = false;
  p.overlap[0][0] = true;  // diagonal
  EXPECT_FALSE(p.Validate().ok());
  p.overlap[0][0] = false;
  p.benefit[0].pop_back();
  EXPECT_FALSE(p.Validate().ok());
}

TEST(MvsProblemTest, UtilityAndFeasibility) {
  MvsProblem p = TinyProblem();
  std::vector<bool> z = {true, false, false, false};
  std::vector<std::vector<bool>> y = {
      {true, false, false, false},
      {true, false, false, false},
      {true, false, false, false},
  };
  EXPECT_TRUE(IsFeasible(p, z, y));
  EXPECT_NEAR(EvaluateUtility(p, z, y), 3 + 2 + 4 - 1, 1e-12);
  // Using an unmaterialized view is infeasible.
  y[0][1] = true;
  EXPECT_FALSE(IsFeasible(p, z, y));
  y[0][1] = false;
  // Using overlapping views together is infeasible.
  z[2] = true;
  y[0][2] = true;
  EXPECT_FALSE(IsFeasible(p, z, y));
}

TEST(YOptTest, PicksNonOverlappingOptimum) {
  MvsProblem p = TinyProblem();
  const MvsProblemIndex index(p);
  YOptSolver yopt(&index);
  std::vector<bool> all(4, true);
  // Query 0: v0 (3.0) and v2 (2.5) overlap; v0+v3 = 3.5 beats v2+v3 = 3.0.
  std::vector<bool> y0 = yopt.SolveQuery(0, all);
  EXPECT_TRUE(y0[0]);
  EXPECT_FALSE(y0[2]);
  EXPECT_TRUE(y0[3]);
  // Query 1: v0 + v1 + v3 all compatible.
  std::vector<bool> y1 = yopt.SolveQuery(1, all);
  EXPECT_TRUE(y1[0]);
  EXPECT_TRUE(y1[1]);
}

TEST(YOptTest, RespectsZ) {
  MvsProblem p = TinyProblem();
  const MvsProblemIndex index(p);
  YOptSolver yopt(&index);
  std::vector<bool> none(4, false);
  for (const auto& row : yopt.SolveAll(none)) {
    for (bool used : row) EXPECT_FALSE(used);
  }
}

TEST(YOptTest, MatchesBruteForceOnRandomInstances) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    MvsProblem p = RandomProblem(4, 8, seed);
    const MvsProblemIndex index(p);
    YOptSolver yopt(&index);
    std::vector<bool> all(8, true);
    for (size_t i = 0; i < p.num_queries(); ++i) {
      std::vector<bool> row = yopt.SolveQuery(i, all);
      // Brute force the per-query optimum.
      double best = 0.0;
      for (uint64_t mask = 0; mask < 256; ++mask) {
        double total = 0.0;
        bool ok = true;
        for (size_t j = 0; j < 8 && ok; ++j) {
          if (!((mask >> j) & 1)) continue;
          if (p.benefit[i][j] <= 0) {
            ok = false;
            break;
          }
          for (size_t k = j + 1; k < 8; ++k) {
            if (((mask >> k) & 1) && p.overlap[j][k]) {
              ok = false;
              break;
            }
          }
          total += p.benefit[i][j];
        }
        if (ok) best = std::max(best, total);
      }
      double got = 0.0;
      for (size_t j = 0; j < 8; ++j) {
        if (row[j]) got += p.benefit[i][j];
      }
      EXPECT_NEAR(got, best, 1e-9) << "seed " << seed << " query " << i;
    }
  }
}

TEST(BranchAndBoundTest, SolvesTinyExactly) {
  MvsProblem p = TinyProblem();
  BranchAndBoundSolver solver;
  auto result = solver.Solve(p);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result.value().utility, BruteForceOptimal(p), 1e-9);
  EXPECT_TRUE(IsFeasible(p, result.value().z, result.value().y));
}

TEST(BranchAndBoundTest, MatchesBruteForceOnRandomInstances) {
  for (uint64_t seed = 20; seed < 26; ++seed) {
    MvsProblem p = RandomProblem(5, 10, seed);
    BranchAndBoundSolver solver;
    auto result = solver.Solve(p);
    ASSERT_TRUE(result.ok());
    EXPECT_NEAR(result.value().utility, BruteForceOptimal(p), 1e-9)
        << "seed " << seed;
  }
}

TEST(BranchAndBoundTest, BudgetExhaustionReported) {
  MvsProblem p = RandomProblem(20, 24, 7);
  BranchAndBoundSolver::Options opts;
  opts.max_nodes = 50;
  BranchAndBoundSolver solver(opts);
  auto result = solver.Solve(p);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(TopkTest, StrategiesRankDifferently) {
  MvsProblem p = TinyProblem();
  EXPECT_EQ(TopkSelector(TopkStrategy::kOverhead, 1).Ranking(p)[0], 0u);
  EXPECT_EQ(TopkSelector(TopkStrategy::kBenefit, 1).Ranking(p)[0], 0u);
  // v3 ties v0 on frequency (3) but v0 comes first (stable order).
  EXPECT_EQ(TopkSelector(TopkStrategy::kFrequency, 1).Ranking(p)[0], 0u);
  // Normalized: v0 has ratio (9-1)/1 = 8, best.
  EXPECT_EQ(TopkSelector(TopkStrategy::kNormalized, 1).Ranking(p)[0], 0u);
}

TEST(TopkTest, SolutionsAlwaysFeasible) {
  MvsProblem p = RandomProblem(6, 9, 3);
  for (TopkStrategy strategy :
       {TopkStrategy::kFrequency, TopkStrategy::kOverhead,
        TopkStrategy::kBenefit, TopkStrategy::kNormalized}) {
    for (size_t k = 0; k <= 9; ++k) {
      TopkSelector selector(strategy, k);
      auto result = selector.Select(p);
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(IsFeasible(p, result.value().z, result.value().y));
    }
  }
}

TEST(TopkTest, CurveRisesThenFalls) {
  // With many useful-but-cheap views and some harmful ones, the k-sweep
  // should peak strictly inside the range (the Fig. 9 shape).
  MvsProblem p = RandomProblem(12, 10, 11);
  // Make two views clearly harmful.
  p.overhead[0] = 100.0;
  p.overhead[1] = 80.0;
  auto result = TopkUtilityCurve(p, TopkStrategy::kNormalized, 1);
  ASSERT_TRUE(result.ok());
  const std::vector<double>& curve = result.value();
  ASSERT_EQ(curve.size(), 11u);
  EXPECT_EQ(curve[0], 0.0);
  double peak = *std::max_element(curve.begin(), curve.end());
  EXPECT_GT(peak, curve.back());
  EXPECT_GT(peak, 0.0);
}

TEST(TopkTest, CurveRejectsMalformedProblem) {
  // A failed selection is an error, not a flat curve of zero utilities.
  MvsProblem p = TinyProblem();
  p.overlap[1][2] = true;  // asymmetric
  for (TopkStrategy strategy :
       {TopkStrategy::kFrequency, TopkStrategy::kOverhead,
        TopkStrategy::kBenefit, TopkStrategy::kNormalized}) {
    auto curve = TopkUtilityCurve(p, strategy, 1);
    ASSERT_FALSE(curve.ok());
    EXPECT_EQ(curve.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(IterViewTest, FlipProbabilityBehavesPerEq3) {
  const MvsProblem dense = TinyProblem();
  const MvsProblemIndex p(dense);
  std::vector<double> b_cur = {9.0, 6.0, 0.0, 0.0};
  // Selected expensive view with zero current benefit is flip-prone.
  std::vector<bool> z = {true, true, true, true};
  double p_useless = internal::FlipProbability(p, b_cur, 3, z);
  double p_useful = internal::FlipProbability(p, b_cur, 0, z);
  EXPECT_GT(p_useless, p_useful);
  // Unselected cheap high-benefit view is flip-prone.
  std::vector<bool> none = {false, false, false, false};
  std::vector<double> zero(4, 0.0);
  double p_good = internal::FlipProbability(p, zero, 0, none);
  double p_bad = internal::FlipProbability(p, zero, 3, none);
  EXPECT_GT(p_good, p_bad);
}

TEST(IterViewTest, FindsGoodSolutions) {
  MvsProblem p = TinyProblem();
  IterViewSelector iterview = IterViewSelector::IterView(60, 5);
  auto result = iterview.Select(p);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsFeasible(p, result.value().z, result.value().y));
  // Optimal tiny utility computed by brute force.
  const double opt = BruteForceOptimal(p);
  EXPECT_GE(result.value().utility, 0.75 * opt);
  EXPECT_EQ(iterview.utility_trace().size(), 61u);
}

TEST(IterViewTest, TraceOscillates) {
  // IterView has no memory: its trace should not be monotone.
  MvsProblem p = RandomProblem(10, 12, 9);
  IterViewSelector iterview = IterViewSelector::IterView(80, 3);
  ASSERT_TRUE(iterview.Select(p).ok());
  const auto& trace = iterview.utility_trace();
  size_t drops = 0;
  for (size_t i = 1; i < trace.size(); ++i) {
    if (trace[i] < trace[i - 1] - 1e-12) ++drops;
  }
  EXPECT_GT(drops, 0u);
}

TEST(BigSubTest, FreezesSelections) {
  MvsProblem p = RandomProblem(10, 12, 9);
  IterViewSelector bigsub = IterViewSelector::BigSub(80, 3);
  auto result = bigsub.Select(p);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(bigsub.name(), "BigSub");
  EXPECT_TRUE(IsFeasible(p, result.value().z, result.value().y));
}

TEST(RLViewTest, FindsNearOptimalOnTiny) {
  MvsProblem p = TinyProblem();
  RLViewSelector::Options opts;
  opts.init_iterations = 5;
  opts.episodes = 15;
  RLViewSelector rlview(opts);
  auto result = rlview.Select(p);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(IsFeasible(p, result.value().z, result.value().y));
  EXPECT_GE(result.value().utility, 0.9 * BruteForceOptimal(p));
}

TEST(RLViewTest, BeatsOrMatchesIterViewOnRandom) {
  // Across seeds, RLView's best utility should be at least IterView's
  // (both see the same warm start; RL explores further with memory).
  size_t wins = 0, ties = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    MvsProblem p = RandomProblem(12, 10, seed + 100);
    IterViewSelector iterview = IterViewSelector::IterView(40, seed);
    auto iter_result = iterview.Select(p);
    RLViewSelector::Options opts;
    opts.init_iterations = 10;
    opts.episodes = 10;
    opts.seed = seed;
    RLViewSelector rlview(opts);
    auto rl_result = rlview.Select(p);
    ASSERT_TRUE(iter_result.ok() && rl_result.ok());
    if (rl_result.value().utility > iter_result.value().utility + 1e-9) {
      ++wins;
    } else if (rl_result.value().utility >=
               iter_result.value().utility - 1e-9) {
      ++ties;
    }
  }
  EXPECT_GE(wins + ties, 3u);
}

TEST(RLViewTest, DuelingAndTargetNetworkVariants) {
  MvsProblem p = TinyProblem();
  for (const auto& [dueling, sync] :
       std::vector<std::pair<bool, size_t>>{{true, 0}, {false, 8}, {true, 8}}) {
    RLViewSelector::Options opts;
    opts.init_iterations = 5;
    opts.episodes = 10;
    opts.dueling = dueling;
    opts.target_sync_every = sync;
    RLViewSelector rlview(opts);
    auto result = rlview.Select(p);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(IsFeasible(p, result.value().z, result.value().y));
    EXPECT_GE(result.value().utility, 0.75 * BruteForceOptimal(p));
  }
}

TEST(RLViewTest, EmptyProblem) {
  MvsProblem p;
  RLViewSelector rlview;
  auto result = rlview.Select(p);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().utility, 0.0);
}

TEST(RLViewTest, LateTraceIsMoreStableThanIterView) {
  // The headline Fig. 10 claim: RLView converges while IterView keeps
  // oscillating. Compare the variance of the last third of the traces.
  MvsProblem p = RandomProblem(15, 12, 77);
  IterViewSelector iterview = IterViewSelector::IterView(90, 7);
  ASSERT_TRUE(iterview.Select(p).ok());
  RLViewSelector::Options opts;
  opts.init_iterations = 10;
  opts.episodes = 20;
  opts.seed = 7;
  RLViewSelector rlview(opts);
  ASSERT_TRUE(rlview.Select(p).ok());

  auto tail_variance = [](const std::vector<double>& trace) {
    const size_t start = trace.size() * 2 / 3;
    double mean = 0.0;
    for (size_t i = start; i < trace.size(); ++i) mean += trace[i];
    const double n = static_cast<double>(trace.size() - start);
    mean /= n;
    double var = 0.0;
    for (size_t i = start; i < trace.size(); ++i) {
      var += (trace[i] - mean) * (trace[i] - mean);
    }
    return var / n;
  };
  EXPECT_LE(tail_variance(rlview.utility_trace()),
            tail_variance(iterview.utility_trace()) + 1e-9);
}

}  // namespace
}  // namespace autoview
