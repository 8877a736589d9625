// Tests for MvsProblemIndex and the index-driven selectors.
//
// The contract under test is strict: every selector reads the instance
// only through the index and re-derives only what a flip touched, yet
// must be *bit-identical* to the dense loops of selection_oracle.h —
// same flip sequence, same per-iteration utilities, same DQN weights,
// same final solution — for any seed, size and deadline outcome.

#include "ilp/problem_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "generators.h"
#include "ilp/compact_problem.h"
#include "ilp/problem.h"
#include "select/iterview.h"
#include "select/rlview.h"
#include "selection_oracle.h"
#include "util/metrics.h"

namespace autoview {
namespace {

using testing::CompactFromDense;
using testing::DenseYOpt;
using testing::OracleIterView;
using testing::OracleRLView;
using testing::RandomProblem;
using testing::RandomSparseProblem;

// ---------------------------------------------------------------------
// Index structure.

TEST(ProblemIndexTest, StructureMatchesDenseMatrix) {
  const MvsProblem p = RandomSparseProblem(40, 120, /*seed=*/7, 0.08,
                                           /*negative_fraction=*/0.2);
  const MvsProblemIndex index(p);

  size_t nonzero = 0, positive = 0;
  for (size_t i = 0; i < p.num_queries(); ++i) {
    // CSR row: exactly the positive entries, ascending view order.
    size_t pos = 0;
    for (size_t j = 0; j < p.num_views(); ++j) {
      if (p.benefit[i][j] > 0) {
        ASSERT_LT(pos, index.Row(i).size());
        EXPECT_EQ(index.Row(i)[pos].index, j);
        EXPECT_EQ(index.Row(i)[pos].benefit, p.benefit[i][j]);
        ++pos;
      }
      if (p.benefit[i][j] != 0.0) ++nonzero;
      if (p.benefit[i][j] > 0) ++positive;
    }
    EXPECT_EQ(index.Row(i).size(), pos);
    // The benefit-descending permutation is genuinely descending.
    const auto& order = index.RowByBenefit(i);
    ASSERT_EQ(order.size(), index.Row(i).size());
    for (size_t q = 1; q < order.size(); ++q) {
      EXPECT_GE(index.Row(i)[order[q - 1]].benefit,
                index.Row(i)[order[q]].benefit);
    }
  }
  EXPECT_EQ(index.NumNonzero(), nonzero);
  EXPECT_EQ(index.NumPositive(), positive);

  for (size_t j = 0; j < p.num_views(); ++j) {
    // Inverted column: all nonzero entries (negatives included),
    // ascending query order — the RLView affected-query set.
    size_t pos = 0;
    for (size_t i = 0; i < p.num_queries(); ++i) {
      if (p.benefit[i][j] != 0.0) {
        ASSERT_LT(pos, index.Column(j).size());
        EXPECT_EQ(index.Column(j)[pos].index, i);
        EXPECT_EQ(index.Column(j)[pos].benefit, p.benefit[i][j]);
        ++pos;
      }
    }
    EXPECT_EQ(index.Column(j).size(), pos);
    // Adjacency mirrors the overlap row.
    size_t adj = 0;
    for (size_t k = 0; k < p.num_views(); ++k) {
      if (p.overlap[j][k]) {
        ASSERT_LT(adj, index.Overlapping(j).size());
        EXPECT_EQ(index.Overlapping(j)[adj], k);
        ++adj;
      }
    }
    EXPECT_EQ(index.Overlapping(j).size(), adj);
    // Memoized aggregates are bit-identical to the dense derivations.
    EXPECT_EQ(index.MaxBenefit(j), p.MaxBenefit(j));
  }
  double o_total = 0.0, b_total = 0.0;
  for (size_t j = 0; j < p.num_views(); ++j) {
    o_total += p.overhead[j];
    b_total += p.MaxBenefit(j);
  }
  EXPECT_EQ(index.TotalOverhead(), o_total);
  EXPECT_EQ(index.TotalMaxBenefit(), b_total);
}

TEST(ProblemIndexTest, SparseUtilityAndBenefitAreBitIdentical) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const MvsProblem p = RandomProblem(25, 60, seed);
    const MvsProblemIndex index(p);
    YOptSolver yopt(&index);
    Rng rng(seed * 31);
    std::vector<bool> z(p.num_views());
    for (size_t j = 0; j < z.size(); ++j) z[j] = rng.Bernoulli(0.5);
    const auto y = yopt.SolveAll(z);

    EXPECT_EQ(index.EvaluateUtilitySparse(z, y), EvaluateUtility(p, z, y));
    for (size_t j = 0; j < p.num_views(); ++j) {
      double dense = 0.0;
      for (size_t i = 0; i < p.num_queries(); ++i) {
        if (y[i][j] && p.benefit[i][j] > 0) dense += p.benefit[i][j];
      }
      EXPECT_EQ(index.CurrentBenefit(j, y), dense);
    }
  }
}

TEST(ProblemIndexTest, IndexedYOptMatchesDense) {
  // Includes rows with deliberately tied benefits, which must take the
  // per-subset re-sort path rather than the precomputed order.
  MvsProblem p = RandomSparseProblem(30, 80, /*seed=*/11, 0.1);
  for (size_t j = 5; j < 15; ++j) p.benefit[3][j] = 1.25;  // ties
  for (size_t j = 20; j < 26; ++j) p.benefit[7][j] = 0.5;  // more ties
  const MvsProblemIndex index(p);
  DenseYOpt dense(&p);
  YOptSolver indexed(&index);
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<bool> z(p.num_views());
    for (size_t j = 0; j < z.size(); ++j) z[j] = rng.Bernoulli(0.6);
    for (size_t i = 0; i < p.num_queries(); ++i) {
      EXPECT_EQ(dense.SolveQuery(i, z), indexed.SolveQuery(i, z))
          << "query " << i << " trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------
// Oracle equivalence: IterView / BigSub.

void ExpectSameSolution(const MvsSolution& a, const MvsSolution& b) {
  EXPECT_EQ(a.z, b.z);
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.utility, b.utility);  // bitwise: both sides are doubles
  EXPECT_EQ(a.timed_out, b.timed_out);
}

IterViewSelector::Options IterOptions(uint64_t seed, size_t iterations) {
  IterViewSelector::Options o;
  o.seed = seed;
  o.iterations = iterations;
  return o;
}

TEST(OracleEquivalenceTest, IterViewMatchesOracleAcrossSeeds) {
  const struct {
    size_t nq, nz;
    double density;
  } kShapes[] = {{12, 30, 0.35}, {40, 100, 0.05}, {25, 60, 0.15}};
  for (const auto& shape : kShapes) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      const MvsProblem p =
          shape.density > 0.2
              ? RandomProblem(shape.nq, shape.nz, seed)
              : RandomSparseProblem(shape.nq, shape.nz, seed, shape.density,
                                    /*negative_fraction=*/0.15);
      OracleIterView oracle(IterOptions(seed, 25));
      IterViewSelector fast(IterOptions(seed, 25));
      auto a = oracle.Select(p);
      auto b = fast.Select(p);
      ASSERT_TRUE(a.ok() && b.ok());
      ExpectSameSolution(a.value(), b.value());
      // Bit-identical per-iteration utilities, not just the winner.
      EXPECT_EQ(oracle.utility_trace(), fast.utility_trace())
          << "nq=" << shape.nq << " nz=" << shape.nz << " seed=" << seed;
    }
  }
}

TEST(OracleEquivalenceTest, BigSubFreezingMatchesOracle) {
  const MvsProblem p = RandomSparseProblem(30, 80, /*seed=*/5, 0.08);
  for (uint64_t seed : {3u, 17u}) {
    IterViewSelector fast = IterViewSelector::BigSub(30, seed);
    OracleIterView oracle(fast.options());
    auto a = oracle.Select(p);
    auto b = fast.Select(p);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectSameSolution(a.value(), b.value());
    EXPECT_EQ(oracle.utility_trace(), fast.utility_trace());
  }
}

// ---------------------------------------------------------------------
// Oracle equivalence: RLView (sparse rewards + no-grad DQN scoring).

RLViewSelector::Options RlOptions(uint64_t seed) {
  RLViewSelector::Options o;
  o.seed = seed;
  o.init_iterations = 4;
  o.episodes = 3;
  o.max_steps_per_episode = 6;
  o.min_memory = 8;
  o.batch_size = 4;
  return o;
}

/// Both loops must leave the same trained DQN, bit for bit (memcmp, so
/// -0.0 vs 0.0 or NaN payloads would also show).
void ExpectSameWeights(const OracleRLView& oracle, const RLViewSelector& fast) {
  const auto& a = oracle.trained_weights();
  const auto& b = fast.trained_weights();
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].size(), b[t].size()) << "tensor " << t;
    EXPECT_EQ(std::memcmp(a[t].data(), b[t].data(),
                          a[t].size() * sizeof(double)),
              0)
        << "tensor " << t;
  }
}

TEST(OracleEquivalenceTest, RLViewMatchesOracle) {
  for (uint64_t seed : {2u, 13u}) {
    const MvsProblem p = RandomSparseProblem(15, 24, seed, 0.12,
                                             /*negative_fraction=*/0.1);
    OracleRLView oracle(RlOptions(seed));
    RLViewSelector fast(RlOptions(seed));
    auto a = oracle.Select(p);
    auto b = fast.Select(p);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectSameSolution(a.value(), b.value());
    EXPECT_EQ(oracle.utility_trace(), fast.utility_trace()) << "seed " << seed;
    ExpectSameWeights(oracle, fast);
  }
}

TEST(OracleEquivalenceTest, RLViewVariantsMatchOracle) {
  const MvsProblem p = RandomSparseProblem(12, 20, /*seed=*/8, 0.15);
  for (const bool dueling : {false, true}) {
    for (const size_t target_sync : {size_t{0}, size_t{2}}) {
      RLViewSelector::Options opts = RlOptions(5);
      opts.dueling = dueling;
      opts.target_sync_every = target_sync;
      OracleRLView oracle(opts);
      RLViewSelector fast(opts);
      auto a = oracle.Select(p);
      auto b = fast.Select(p);
      ASSERT_TRUE(a.ok() && b.ok());
      ExpectSameSolution(a.value(), b.value());
      EXPECT_EQ(oracle.utility_trace(), fast.utility_trace())
          << "dueling=" << dueling << " target_sync=" << target_sync;
      ExpectSameWeights(oracle, fast);
    }
  }
}

TEST(OracleEquivalenceTest, RLViewDefaultTrainingMatchesOracle) {
  // The cases above reach the training branch for a handful of steps.
  // Here the replay and batch settings are the defaults (batch 16,
  // min_memory 32), the memory is small enough to wrap, and the episodes
  // run hundreds of training steps, so the library's one-row training
  // pass is checked against the oracle's full ForwardAll pass over a
  // long run of Adam updates.
  const MvsProblem p = RandomSparseProblem(20, 40, /*seed=*/11, 0.1,
                                           /*negative_fraction=*/0.1);
  for (const bool dueling : {false, true}) {
    RLViewSelector::Options opts;
    opts.seed = 21;
    opts.init_iterations = 4;
    opts.episodes = 9;
    opts.memory_capacity = 64;
    opts.dueling = dueling;
    ASSERT_EQ(opts.batch_size, 16u);
    ASSERT_EQ(opts.min_memory, 32u);
    OracleRLView oracle(opts);
    RLViewSelector fast(opts);
    auto a = oracle.Select(p);
    auto b = fast.Select(p);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectSameSolution(a.value(), b.value());
    EXPECT_EQ(oracle.utility_trace(), fast.utility_trace())
        << "dueling=" << dueling;
    ExpectSameWeights(oracle, fast);
    // Every episode step is one trace entry; each step from the 32nd on
    // trains, and the memory wraps past its 64 entries.
    const size_t steps = oracle.utility_trace().size() - opts.init_iterations;
    EXPECT_GE(steps, opts.episodes * p.num_views());
    EXPECT_GE(steps - opts.min_memory, 300u);
  }
}

// ---------------------------------------------------------------------
// Deadline / cancellation equivalence.

TEST(OracleEquivalenceTest, ExpiredDeadlineGivesSameIncumbent) {
  // Wall-clock budgets are not reproducible, but an already-expired
  // deadline is: the oracle and the library observe expiry at the same
  // poll point, so they must return the same (timed-out, feasible)
  // incumbent.
  const MvsProblem p = RandomSparseProblem(18, 40, /*seed=*/4, 0.1);
  IterViewSelector::Options o = IterOptions(6, 20);
  o.deadline = Deadline::AfterMillis(0.0);
  OracleIterView oracle(o);
  IterViewSelector fast(o);
  for (ViewSelector* selector : {static_cast<ViewSelector*>(&oracle),
                                 static_cast<ViewSelector*>(&fast)}) {
    auto got = selector->Select(p);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got.value().timed_out);
    EXPECT_GE(got.value().utility, 0.0);
    EXPECT_TRUE(IsFeasible(p, got.value().z, got.value().y));
  }
  // The two agree bitwise on the timed-out incumbent.
  auto ra = oracle.Select(p);
  auto rb = fast.Select(p);
  ASSERT_TRUE(ra.ok() && rb.ok());
  ExpectSameSolution(ra.value(), rb.value());
  EXPECT_EQ(oracle.utility_trace(), fast.utility_trace());
}

TEST(OracleEquivalenceTest, CancelledTokenGivesSameIncumbent) {
  const MvsProblem p = RandomSparseProblem(15, 30, /*seed=*/2, 0.1);
  CancellationToken cancelled;
  cancelled.RequestCancel();
  RLViewSelector::Options o = RlOptions(3);
  o.cancel = cancelled;
  OracleRLView oracle(o);
  RLViewSelector fast(o);
  std::vector<MvsSolution> solutions;
  std::vector<std::vector<double>> traces;
  for (ViewSelector* selector : {static_cast<ViewSelector*>(&oracle),
                                 static_cast<ViewSelector*>(&fast)}) {
    auto got = selector->Select(p);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got.value().timed_out);
    solutions.push_back(got.value());
    traces.push_back(selector->utility_trace());
  }
  ExpectSameSolution(solutions[0], solutions[1]);
  EXPECT_EQ(traces[0], traces[1]);
}

// ---------------------------------------------------------------------
// Operation counters: the library's reward path reads O(affected)
// benefit cells, the dense oracle O(|Q| x |Z|) per evaluation.

TEST(OracleEquivalenceTest, RewardCostDropsFromDenseToSparse) {
  const size_t nq = 40, nz = 120;
  const MvsProblem p = RandomSparseProblem(nq, nz, /*seed=*/6, 0.05);
  const MvsProblemIndex index(p);

  auto run = [&](ViewSelector&& selector) {
    GlobalSelection().Reset();
    auto got = selector.Select(p);
    EXPECT_TRUE(got.ok());
    return GlobalSelection().Read();
  };
  const auto dense = run(OracleRLView(RlOptions(7)));
  const auto sparse = run(RLViewSelector(RlOptions(7)));

  // Identical work shape implies the same evaluation count; each dense
  // evaluation reads the full matrix, each sparse one only the support
  // (~5% here — require at least a 5x drop).
  ASSERT_GT(dense.utility_cells, 0u);
  ASSERT_GT(sparse.utility_cells, 0u);
  EXPECT_LE(sparse.utility_cells * 5, dense.utility_cells);
  // Per-step Y-Opt work: the dense environment step already re-solved
  // only affected queries; the library must not do more.
  EXPECT_LE(sparse.queries_solved, dense.queries_solved);
  // And the sparse reward read is exactly the positive support.
  EXPECT_EQ(sparse.utility_cells % static_cast<uint64_t>(index.NumPositive()),
            0u);
}

// ---------------------------------------------------------------------
// The Table IV / Fig. 9 baselines through index-only Y-Opt: Top-k (all
// four rankings, single k and the k-sweep) and the exact OPT search
// must give the oracle's dense-Y-Opt results bit for bit, including on
// rows with tied benefits (the per-subset re-sort) and on a row with
// more applicable views than the exact search takes (the greedy
// fallback).

MvsProblem BaselineInstance(uint64_t seed) {
  MvsProblem p = RandomSparseProblem(10, 30, seed, 0.25,
                                     /*negative_fraction=*/0.1);
  for (size_t j = 2; j < 9; ++j) p.benefit[1][j] = 0.75;   // ties
  for (size_t j = 12; j < 16; ++j) p.benefit[4][j] = 1.5;  // ties
  // Row 6 can use every view: 30 applicable views > the 26-view cutoff.
  Rng rng(seed + 1000);
  for (size_t j = 0; j < p.num_views(); ++j) {
    p.benefit[6][j] = rng.Uniform(0.1, 3.0);
  }
  p.frequency.assign(p.num_views(), 0);
  for (const auto& row : p.benefit) {
    for (size_t j = 0; j < row.size(); ++j) p.frequency[j] += row[j] > 0;
  }
  return p;
}

TEST(OracleEquivalenceTest, BaselinesMatchDenseYOpt) {
  const TopkStrategy kStrategies[] = {
      TopkStrategy::kFrequency, TopkStrategy::kOverhead,
      TopkStrategy::kBenefit, TopkStrategy::kNormalized};
  for (const uint64_t seed : {3u, 8u, 41u}) {
    const MvsProblem p = BaselineInstance(seed);
    const MvsProblemIndex index(p);
    ASSERT_TRUE(index.RowHasTies(1));
    ASSERT_GT(index.Row(6).size(), 26u);
    for (const TopkStrategy strategy : kStrategies) {
      auto curve = TopkUtilityCurve(p, strategy, 1);
      ASSERT_TRUE(curve.ok());
      ASSERT_EQ(curve.value().size(), p.num_views() + 1);
      for (size_t k = 0; k <= p.num_views(); ++k) {
        const MvsSolution expected = testing::OracleTopk(p, strategy, k);
        auto got = TopkSelector(strategy, k).Select(p);
        ASSERT_TRUE(got.ok());
        ExpectSameSolution(expected, got.value());
        EXPECT_EQ(curve.value()[k], expected.utility)
            << TopkStrategyName(strategy) << " k=" << k;
      }
    }
    // OPT: a budget the search meets, then half of what it used. Dearer
    // views leave few with a positive net value, so the exact search
    // finishes over all 30.
    MvsProblem dear = p;
    for (double& o : dear.overhead) o += 3.0;
    BranchAndBoundSolver::Options options;
    uint64_t oracle_nodes = 0;
    auto expected = testing::OracleBranchAndBound(dear, options, &oracle_nodes);
    BranchAndBoundSolver solver(options);
    auto got = solver.Solve(dear);
    ASSERT_TRUE(expected.ok() && got.ok()) << "seed " << seed;
    EXPECT_EQ(oracle_nodes, solver.nodes_expanded());
    ExpectSameSolution(expected.value(), got.value());
    ASSERT_GT(oracle_nodes, 2u);
    options.max_nodes = oracle_nodes / 2;
    BranchAndBoundSolver starved(options);
    EXPECT_FALSE(
        testing::OracleBranchAndBound(dear, options, &oracle_nodes).ok());
    EXPECT_FALSE(starved.Solve(dear).ok());
    EXPECT_EQ(oracle_nodes, starved.nodes_expanded());
  }
}

// ---------------------------------------------------------------------
// Compressed-CSR shards: exact decode and compact-vs-dense index
// identity. The varint/delta encoding must round-trip every row bit-
// exactly (benefits are raw IEEE-754 bytes), and an index built from
// shards must equal the dense-built index field for field.

TEST(CompressedRowStoreTest, RoundTripsRowsExactly) {
  for (const size_t budget : {1u, 64u, 1u << 20}) {
    CompressedRowStore store(budget);
    const std::vector<std::vector<CompressedRowStore::Entry>> rows = {
        {},
        {{0, 1.5}},
        {{3, -2.25}, {4, 1e-300}, {200, 3.141592653589793}},
        {},
        {{7, -0.0}, {1000000, 42.0}},
    };
    for (const auto& row : rows) store.AppendRow(row);
    ASSERT_EQ(store.num_rows(), rows.size());
    EXPECT_EQ(store.num_entries(), 6u);
    std::vector<CompressedRowStore::Entry> decoded;
    for (size_t i = 0; i < rows.size(); ++i) {
      store.DecodeRow(i, &decoded);
      ASSERT_EQ(decoded.size(), rows[i].size()) << "row " << i;
      for (size_t n = 0; n < rows[i].size(); ++n) {
        EXPECT_EQ(decoded[n].index, rows[i][n].index);
        // Bit-exact including -0.0 and denormal-range values.
        EXPECT_EQ(std::signbit(decoded[n].benefit),
                  std::signbit(rows[i][n].benefit));
        EXPECT_EQ(decoded[n].benefit, rows[i][n].benefit);
      }
    }
    // A 1-byte budget forces one shard per row; a big budget packs all.
    if (budget == 1) {
      EXPECT_GE(store.num_shards(), 3u);
    }
  }
}

TEST(CompressedRowStoreTest, ForEachEntryMatchesDecodeRow) {
  const MvsProblem p = RandomSparseProblem(30, 80, /*seed=*/21, 0.1, 0.3);
  const auto compact = CompactFromDense(p, /*budget=*/128);
  std::vector<CompressedRowStore::Entry> decoded;
  for (size_t i = 0; i < p.num_queries(); ++i) {
    compact.rows.DecodeRow(i, &decoded);
    size_t n = 0;
    compact.rows.ForEachEntry(i, [&](size_t view, double benefit) {
      ASSERT_LT(n, decoded.size());
      EXPECT_EQ(view, decoded[n].index);
      EXPECT_EQ(benefit, decoded[n].benefit);
      ++n;
    });
    EXPECT_EQ(n, decoded.size());
    // And the decoded row is exactly the nonzero cells of the dense row.
    size_t nonzero = 0;
    for (size_t j = 0; j < p.num_views(); ++j) {
      if (p.benefit[i][j] == 0.0) continue;
      ASSERT_LT(nonzero, decoded.size());
      EXPECT_EQ(decoded[nonzero].index, j);
      EXPECT_EQ(decoded[nonzero].benefit, p.benefit[i][j]);
      ++nonzero;
    }
    EXPECT_EQ(nonzero, decoded.size());
  }
}

TEST(CompactProblemTest, IndexFromShardsEqualsIndexFromDense) {
  for (const uint64_t seed : {3u, 17u, 91u}) {
    for (const size_t budget : {32u, 1u << 20}) {
      const MvsProblem p =
          RandomSparseProblem(45, 130, seed, 0.07, /*negative=*/0.25);
      const auto compact = CompactFromDense(p, budget);
      ASSERT_TRUE(compact.Validate().ok());

      const MvsProblemIndex dense(p);
      const MvsProblemIndex sparse(compact);
      ASSERT_EQ(dense.num_queries(), sparse.num_queries());
      ASSERT_EQ(dense.num_views(), sparse.num_views());
      for (size_t i = 0; i < dense.num_queries(); ++i) {
        ASSERT_EQ(dense.Row(i).size(), sparse.Row(i).size());
        for (size_t n = 0; n < dense.Row(i).size(); ++n) {
          EXPECT_EQ(dense.Row(i)[n].index, sparse.Row(i)[n].index);
          EXPECT_EQ(dense.Row(i)[n].benefit, sparse.Row(i)[n].benefit);
        }
        EXPECT_EQ(dense.RowByBenefit(i), sparse.RowByBenefit(i));
        EXPECT_EQ(dense.RowHasTies(i), sparse.RowHasTies(i));
      }
      for (size_t j = 0; j < dense.num_views(); ++j) {
        ASSERT_EQ(dense.Column(j).size(), sparse.Column(j).size());
        for (size_t n = 0; n < dense.Column(j).size(); ++n) {
          EXPECT_EQ(dense.Column(j)[n].index, sparse.Column(j)[n].index);
          EXPECT_EQ(dense.Column(j)[n].benefit, sparse.Column(j)[n].benefit);
        }
        EXPECT_EQ(dense.Overlapping(j), sparse.Overlapping(j));
        EXPECT_EQ(dense.MaxBenefit(j), sparse.MaxBenefit(j));
      }
      EXPECT_EQ(dense.Overhead(), sparse.Overhead());
      EXPECT_EQ(dense.TotalOverhead(), sparse.TotalOverhead());
      EXPECT_EQ(dense.TotalMaxBenefit(), sparse.TotalMaxBenefit());
      EXPECT_EQ(dense.NumNonzero(), sparse.NumNonzero());
      EXPECT_EQ(dense.NumPositive(), sparse.NumPositive());
    }
  }
}

TEST(CompactProblemTest, SelectIndexedFromShardsMatchesDenseSelect) {
  for (const uint64_t seed : {5u, 23u}) {
    const MvsProblem p = RandomSparseProblem(35, 90, seed, 0.08, 0.2);
    const auto compact = CompactFromDense(p, /*budget=*/64);
    const MvsProblemIndex index(compact);

    IterViewSelector::Options options;
    options.iterations = 80;
    options.seed = seed;
    const auto sharded = IterViewSelector(options).SelectIndexed(index);
    ASSERT_TRUE(sharded.ok());
    const auto dense = OracleIterView(options).Select(p);
    ASSERT_TRUE(dense.ok());

    EXPECT_EQ(sharded.value().z, dense.value().z);
    EXPECT_EQ(sharded.value().y, dense.value().y);
    EXPECT_EQ(sharded.value().utility, dense.value().utility);
  }
}

TEST(CompactProblemTest, BuilderValidatesAdjacency) {
  ShardedProblemBuilder builder(/*budget=*/256);
  // Asymmetric adjacency must be rejected at Finalize.
  builder.SetViews({1.0, 2.0}, {{1}, {}});
  builder.AddRow({{0, 1.0}});
  EXPECT_FALSE(std::move(builder).Finalize().ok());
}

}  // namespace
}  // namespace autoview
