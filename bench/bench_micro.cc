// Component micro-benchmarks (google-benchmark): parser, plan hashing
// and canonicalization, engine operators, NN forward/backward, Y-Opt
// and Z-Opt steps. These gate performance regressions in the pieces the
// paper-scale harnesses depend on.

#include <benchmark/benchmark.h>

#include <cmath>

#include "core/autoview.h"
#include "costmodel/wide_deep.h"
#include "ilp/problem_index.h"
#include "nn/modules.h"
#include "nn/optimizer.h"
#include "plan/builder.h"
#include "plan/canonical.h"
#include "select/iterview.h"
#include "sql/parser.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace autoview {
namespace {

constexpr const char* kFig2Sql =
    "select t1.user_id, count(*) as cnt from ("
    "select user_id, memo from user_memo "
    "where dt = '1010' and memo_type = 'pen') t1 "
    "inner join (select user_id, action from user_action "
    "where type = 1 and dt = '1010') t2 "
    "on t1.user_id = t2.user_id group by t1.user_id";

void FillFig2Catalog(Catalog* catalog) {
  AV_CHECK(catalog
               ->AddTable(TableSchema("user_memo",
                                     {{"user_id", ColumnType::kInt64},
                                      {"memo", ColumnType::kString},
                                      {"dt", ColumnType::kString},
                                      {"memo_type", ColumnType::kString}}))
               .ok());
  AV_CHECK(catalog
               ->AddTable(TableSchema("user_action",
                                     {{"user_id", ColumnType::kInt64},
                                      {"action", ColumnType::kString},
                                      {"type", ColumnType::kInt64},
                                      {"dt", ColumnType::kString}}))
               .ok());
}

void BM_ParseSql(benchmark::State& state) {
  for (auto _ : state) {
    auto r = ParseSelect(kFig2Sql);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ParseSql);

void BM_BuildPlan(benchmark::State& state) {
  Catalog catalog;
  FillFig2Catalog(&catalog);
  PlanBuilder builder(&catalog);
  for (auto _ : state) {
    auto plan = builder.BuildFromSql(kFig2Sql);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_BuildPlan);

/// Parse + plan over a fixed 1,024-query stride sample of WK1-full
/// against its real 388-table catalog: derived tables, multi-way joins
/// and a catalog of Table I size, which the flat Fig. 2 query above
/// misses. One iteration plans the whole sample.
void BM_BuildPlanWk1(benchmark::State& state) {
  static const GeneratedWorkload* const wk =
      new GeneratedWorkload(GenerateCloudWorkload(Wk1FullSpec()));
  constexpr size_t kSample = 1024;
  std::vector<std::string> sample;
  sample.reserve(kSample);
  for (size_t i = 0; i < kSample; ++i) {
    sample.push_back(wk->sql[i * wk->sql.size() / kSample]);
  }
  PlanBuilder builder(&wk->db->catalog());
  for (auto _ : state) {
    for (const std::string& sql : sample) {
      auto plan = builder.BuildFromSql(sql);
      benchmark::DoNotOptimize(plan);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSample));
}
BENCHMARK(BM_BuildPlanWk1)->Unit(benchmark::kMillisecond);

void BM_PlanHash(benchmark::State& state) {
  Catalog catalog;
  FillFig2Catalog(&catalog);
  PlanBuilder builder(&catalog);
  auto plan = builder.BuildFromSql(kFig2Sql).value();
  for (auto _ : state) {
    // Hash is cached per node; rebuilt trees in real use, so measure the
    // canonical key (uncached) instead for a stable signal.
    benchmark::DoNotOptimize(CanonicalKey(*plan));
  }
}
BENCHMARK(BM_PlanHash);

void BM_ExecuteQuery(benchmark::State& state) {
  CloudWorkloadSpec spec;
  spec.projects = 1;
  spec.queries = 1;
  spec.min_rows = static_cast<size_t>(state.range(0));
  spec.max_rows = static_cast<size_t>(state.range(0));
  spec.seed = 3;
  GeneratedWorkload wk = GenerateCloudWorkload(spec);
  PlanBuilder builder(&wk.db->catalog());
  auto plan = builder.BuildFromSql(wk.sql[0]).value();
  Executor exec(wk.db.get());
  for (auto _ : state) {
    auto result = exec.Execute(*plan);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
}
BENCHMARK(BM_ExecuteQuery)->Arg(1000)->Arg(4000);

/// The JOB preset's database (the tables advise-job executes over),
/// generated once per binary.
const GeneratedWorkload& JobPreset() {
  static const GeneratedWorkload* const wk =
      new GeneratedWorkload(GenerateJobWorkload(JobWorkloadSpec{}));
  return *wk;
}

PlanNodePtr JobScan(const std::string& table) {
  return PlanNode::MakeScan(JobPreset().db->catalog(), table).value();
}

ExprPtr JobColumn(const PlanNode& plan, size_t c) {
  return Expr::Column(c, plan.output()[c].name, plan.output()[c].type);
}

/// Prices `plan` (ExecuteForCost, as ground truth and serving do) once
/// per iteration; items are the input rows the plan scans.
void RunCostLoop(benchmark::State& state, const PlanNode& plan,
                 size_t scanned_rows) {
  Executor exec(JobPreset().db.get());
  for (auto _ : state) {
    auto cost = exec.ExecuteForCost(plan);
    benchmark::DoNotOptimize(cost);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(scanned_rows));
}

size_t JobRows(const std::string& table) {
  return JobPreset().db->GetTable(table).value()->num_rows();
}

/// Filter over cast_info: two int64 column-literal terms (about a third
/// of the rows pass role_id <= 4, then person_id < 400 narrows them).
void BM_ExecFilter(benchmark::State& state) {
  PlanNodePtr scan = JobScan("cast_info");
  ExprPtr pred = Expr::And(
      {Expr::Compare(CompareOp::kLe, JobColumn(*scan, 2),
                     Expr::Literal(Value(int64_t{4}))),
       Expr::Compare(CompareOp::kLt, JobColumn(*scan, 1),
                     Expr::Literal(Value(int64_t{400})))});
  PlanNodePtr filter = PlanNode::MakeFilter(scan, pred).value();
  RunCostLoop(state, *filter, JobRows("cast_info"));
}
BENCHMARK(BM_ExecFilter);

/// Hash join of movie_companies with title on movie_id = id (the fact
/// to dimension join of most JOB queries; the string country_code
/// column is carried through).
void BM_ExecHashJoin(benchmark::State& state) {
  PlanNodePtr left = JobScan("movie_companies");
  PlanNodePtr right = JobScan("title");
  const size_t width = left->output().size();
  ExprPtr cond = Expr::Compare(
      CompareOp::kEq, JobColumn(*left, 0),
      Expr::Column(width, right->output()[0].name, right->output()[0].type));
  PlanNodePtr join = PlanNode::MakeJoin(left, right, cond).value();
  RunCostLoop(state, *join, JobRows("movie_companies") + JobRows("title"));
}
BENCHMARK(BM_ExecHashJoin);

/// Aggregate over cast_info grouped by role_id: COUNT(*), SUM, MIN and
/// MAX of int64 columns.
void BM_ExecAggregate(benchmark::State& state) {
  PlanNodePtr scan = JobScan("cast_info");
  std::vector<AggItem> aggs = {{AggKind::kCountStar, std::nullopt, "", "n"},
                               {AggKind::kSum, size_t{1}, "", "s"},
                               {AggKind::kMin, size_t{0}, "", "lo"},
                               {AggKind::kMax, size_t{0}, "", "hi"}};
  PlanNodePtr agg = PlanNode::MakeAggregate(scan, {2}, aggs).value();
  RunCostLoop(state, *agg, JobRows("cast_info"));
}
BENCHMARK(BM_ExecAggregate);

void BM_LstmForward(benchmark::State& state) {
  Rng rng(1);
  nn::Lstm lstm(16, 32, &rng);
  nn::Tensor seq = nn::Tensor::Uniform(static_cast<size_t>(state.range(0)),
                                       16, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.Forward(seq));
  }
}
BENCHMARK(BM_LstmForward)->Arg(8)->Arg(32);

/// RLView's action scoring: the no-grad Q-net (8/16/64/16/1) over a
/// batch of action-feature rows, about a third of them exact zeros.
void BM_MlpInference(benchmark::State& state) {
  Rng rng(1);
  nn::Mlp mlp({8, 16, 64, 16, 1}, &rng);
  nn::MlpInference inference(&mlp);
  const size_t rows = static_cast<size_t>(state.range(0));
  std::vector<nn::Scalar> x(rows * 8);
  for (auto& v : x) v = rng.Bernoulli(0.3) ? 0.0 : rng.Uniform(0.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(inference.Forward(x.data(), rows).data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MlpInference)->Arg(64)->Arg(512);

void BM_MlpTrainStep(benchmark::State& state) {
  Rng rng(1);
  nn::Mlp mlp({8, 16, 64, 16, 1}, &rng);
  nn::Adam adam(mlp.Parameters());
  nn::Tensor x = nn::Tensor::Uniform(16, 8, 1.0, &rng);
  nn::Tensor y = nn::Tensor::Uniform(16, 1, 1.0, &rng);
  for (auto _ : state) {
    adam.ZeroGrad();
    nn::MseLoss(mlp.Forward(x), y).Backward();
    adam.Step();
  }
}
BENCHMARK(BM_MlpTrainStep);

MvsProblem MakeRandomProblem(size_t nq, size_t nz) {
  Rng rng(9);
  MvsProblem p;
  p.overhead.resize(nz);
  for (auto& o : p.overhead) o = rng.Uniform(0.5, 5.0);
  p.benefit.assign(nq, std::vector<double>(nz, 0.0));
  p.frequency.assign(nz, 0);
  for (auto& row : p.benefit) {
    for (auto& b : row) {
      if (rng.Bernoulli(0.3)) b = rng.Uniform(0.1, 3.0);
    }
  }
  p.overlap.assign(nz, std::vector<bool>(nz, false));
  for (size_t j = 0; j < nz; ++j) {
    for (size_t k = j + 1; k < nz; ++k) {
      if (rng.Bernoulli(0.1)) p.overlap[j][k] = p.overlap[k][j] = true;
    }
  }
  return p;
}

void BM_YOptSolveAll(benchmark::State& state) {
  MvsProblem p = MakeRandomProblem(static_cast<size_t>(state.range(0)), 24);
  const MvsProblemIndex index(p);
  YOptSolver yopt(&index);
  std::vector<bool> z(24, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(yopt.SolveAll(z));
  }
}
BENCHMARK(BM_YOptSolveAll)->Arg(50)->Arg(200);

void BM_IterViewIteration(benchmark::State& state) {
  MvsProblem p = MakeRandomProblem(100, 24);
  for (auto _ : state) {
    IterViewSelector iterview = IterViewSelector::IterView(1, 7);
    benchmark::DoNotOptimize(iterview.Select(p));
  }
}
BENCHMARK(BM_IterViewIteration);

/// Deterministic stand-in for one Estimate() call: enough transcendental
/// work per (query, view) cell that the fill is compute-bound, like the
/// Wide-Deep forward pass it models.
double BenefitCellKernel(size_t i, size_t j) {
  double acc = static_cast<double>(i * 131 + j * 17 + 1);
  for (int it = 0; it < 400; ++it) {
    acc = std::log(1.0 + std::fabs(std::sin(acc) * 1.7 + 0.3)) + acc * 1e-6 +
          1.0;
  }
  return acc;
}

/// Thread-scaling over the benefit-matrix fill B(q, v): rows are chunked
/// across a pool of state.range(0) workers, the reduction checksum stays
/// on the calling thread. Run with --benchmark_filter=BenefitMatrixFill
/// --benchmark_out=BENCH_scaling.json --benchmark_out_format=json to
/// emit JSON; speedup(T) = real_time(threads:1) / real_time(threads:T).
void BM_BenefitMatrixFill(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  ThreadPool pool(threads);
  const size_t nq = 96;
  const size_t nz = 64;
  std::vector<double> benefit(nq * nz, 0.0);
  double checksum = 0.0;
  for (auto _ : state) {
    pool.ParallelFor(0, nq, [&](size_t i) {
      for (size_t j = 0; j < nz; ++j) {
        benefit[i * nz + j] = BenefitCellKernel(i, j);
      }
    });
    checksum = 0.0;
    for (double b : benefit) checksum += b;  // sequential reduction
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nq * nz));
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["cells"] = static_cast<double>(nq * nz);
}
BENCHMARK(BM_BenefitMatrixFill)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace autoview

BENCHMARK_MAIN();
