// Property suite for the parallelism contract: every pooled code path
// (multi-restart IterView, batched Wide-Deep inference, subquery
// extraction + overlap detection) must produce results bit-identical to
// a 1-thread run under the same seed, for any worker count.

#include <gtest/gtest.h>

#include "core/autoview.h"
#include "costmodel/wide_deep.h"
#include "generators.h"
#include "plan/builder.h"
#include "select/iterview.h"
#include "subquery/clusterer.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace autoview {
namespace {

using testing::RandomProblem;

// ---------------------------------------------------------------------------
// IterView / BigSub: seeded multi-restart selection is independent of
// the worker count — same utility, same selected view set Z, same
// per-query assignment Y, same winning-trial trace.
// ---------------------------------------------------------------------------

class IterViewDeterminismP : public ::testing::TestWithParam<uint64_t> {};

MvsSolution RunIterView(const MvsProblem& problem, uint64_t seed,
                        size_t freeze_after, ThreadPool* pool,
                        std::vector<double>* trace) {
  IterViewSelector::Options options;
  options.iterations = 30;
  options.freeze_selected_after = freeze_after;
  options.seed = seed;
  options.restarts = 6;
  options.pool = pool;
  IterViewSelector selector(options);
  auto result = selector.Select(problem);
  EXPECT_TRUE(result.ok());
  *trace = selector.utility_trace();
  return result.value();
}

TEST_P(IterViewDeterminismP, OneThreadMatchesManyThreads) {
  const uint64_t seed = GetParam();
  const MvsProblem problem = RandomProblem(24, 14, seed);
  ThreadPool one(1), many(4);
  for (size_t freeze : {static_cast<size_t>(SIZE_MAX), size_t{15}}) {
    std::vector<double> trace_one, trace_many;
    const MvsSolution a = RunIterView(problem, seed, freeze, &one, &trace_one);
    const MvsSolution b =
        RunIterView(problem, seed, freeze, &many, &trace_many);
    EXPECT_EQ(a.utility, b.utility);  // bitwise, not approximate
    EXPECT_EQ(a.z, b.z);
    EXPECT_EQ(a.y, b.y);
    EXPECT_EQ(trace_one, trace_many);
  }
}

TEST_P(IterViewDeterminismP, SingleRestartPreservesLegacyStream) {
  // restarts == 1 must reproduce the historical single-trial result
  // (restart 0 consumes the raw seed, not a derived stream).
  const uint64_t seed = GetParam();
  const MvsProblem problem = RandomProblem(20, 12, seed + 100);
  IterViewSelector legacy = IterViewSelector::IterView(30, seed);
  auto expected = legacy.Select(problem);
  ASSERT_TRUE(expected.ok());

  IterViewSelector::Options options;
  options.iterations = 30;
  options.seed = seed;
  options.restarts = 1;
  IterViewSelector selector(options);
  auto got = selector.Select(problem);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(expected.value().utility, got.value().utility);
  EXPECT_EQ(expected.value().z, got.value().z);
  EXPECT_EQ(expected.value().y, got.value().y);
}

TEST_P(IterViewDeterminismP, MoreRestartsNeverHurt) {
  const uint64_t seed = GetParam();
  const MvsProblem problem = RandomProblem(24, 14, seed);
  ThreadPool pool(4);
  std::vector<double> trace;
  const MvsSolution single =
      RunIterView(problem, seed, SIZE_MAX, &pool, &trace);
  IterViewSelector::Options options;
  options.iterations = 30;
  options.seed = seed;
  options.restarts = 12;
  options.pool = &pool;
  IterViewSelector selector(options);
  auto result = selector.Select(problem);
  ASSERT_TRUE(result.ok());
  // The 12-restart winner dominates the 6-restart winner: the trial set
  // of the former is a superset of the latter's.
  EXPECT_GE(result.value().utility, single.utility);
  EXPECT_TRUE(IsFeasible(problem, result.value().z, result.value().y));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IterViewDeterminismP,
                         ::testing::Values(31, 32, 33, 34));

// ---------------------------------------------------------------------------
// Wide-Deep: batched parallel inference must equal the sequential
// Estimate loop bitwise, for every pool size.
// ---------------------------------------------------------------------------

class WideDeepBatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CloudWorkloadSpec spec;
    spec.name = "par";
    spec.projects = 2;
    spec.queries = 30;
    spec.min_rows = 200;
    spec.max_rows = 500;
    spec.subquery_pool = 6;
    spec.seed = 77;
    workload_ = new GeneratedWorkload(GenerateCloudWorkload(spec));
    system_ = new AutoViewSystem(workload_->db.get(), AutoViewOptions{});
    ASSERT_TRUE(system_->LoadWorkload(workload_->sql).ok());
    ASSERT_TRUE(system_->BuildGroundTruth().ok());
    WideDeepOptions options;
    options.epochs = 3;  // enough to give non-trivial weights
    options.seed = 5;
    estimator_ = new WideDeepEstimator(&workload_->db->catalog(), options);
    ASSERT_TRUE(estimator_->Train(system_->cost_dataset()).ok());
  }
  static void TearDownTestSuite() {
    delete estimator_;
    estimator_ = nullptr;
    delete system_;
    system_ = nullptr;
    delete workload_;
    workload_ = nullptr;
  }

  static GeneratedWorkload* workload_;
  static AutoViewSystem* system_;
  static WideDeepEstimator* estimator_;
};

GeneratedWorkload* WideDeepBatchTest::workload_ = nullptr;
AutoViewSystem* WideDeepBatchTest::system_ = nullptr;
WideDeepEstimator* WideDeepBatchTest::estimator_ = nullptr;

TEST_F(WideDeepBatchTest, BatchMatchesSequentialForAnyPoolSize) {
  const auto& samples = system_->cost_dataset();
  ASSERT_FALSE(samples.empty());
  std::vector<double> sequential;
  sequential.reserve(samples.size());
  for (const auto& s : samples) sequential.push_back(estimator_->Estimate(s));
  for (size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    const std::vector<double> batched =
        estimator_->EstimateBatch(samples, &pool);
    ASSERT_EQ(batched.size(), sequential.size());
    for (size_t i = 0; i < batched.size(); ++i) {
      EXPECT_EQ(batched[i], sequential[i])  // bitwise
          << "sample " << i << " with " << threads << " threads";
    }
  }
}

TEST_F(WideDeepBatchTest, EstimatedProblemIdenticalAcrossPools) {
  auto estimated = system_->EstimateProblem(*estimator_);
  ASSERT_TRUE(estimated.ok());
  auto again = system_->EstimateProblem(*estimator_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(estimated.value().benefit, again.value().benefit);
}

// ---------------------------------------------------------------------------
// Subquery pre-process: parallel extraction and overlap detection give
// the same analysis as a 1-thread pool for every seed.
// ---------------------------------------------------------------------------

class ClustererDeterminismP : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClustererDeterminismP, AnalysisIndependentOfThreadCount) {
  CloudWorkloadSpec spec;
  spec.projects = 2;
  spec.queries = 25;
  spec.min_rows = 60;
  spec.max_rows = 120;
  spec.subquery_pool = 8;
  spec.seed = GetParam();
  GeneratedWorkload wk = GenerateCloudWorkload(spec);
  PlanBuilder builder(&wk.db->catalog());
  std::vector<PlanNodePtr> queries;
  for (const auto& sql : wk.sql) {
    auto plan = builder.BuildFromSql(sql);
    ASSERT_TRUE(plan.ok());
    queries.push_back(plan.value());
  }

  ThreadPool one(1), many(4);
  SubqueryClusterer::Options opt_one, opt_many;
  opt_one.pool = &one;
  opt_many.pool = &many;
  const auto query_fn = [&queries](size_t qi) { return queries[qi]; };
  const WorkloadAnalysis a =
      SubqueryClusterer(opt_one).AnalyzeStreaming(queries.size(), query_fn);
  const WorkloadAnalysis b =
      SubqueryClusterer(opt_many).AnalyzeStreaming(queries.size(), query_fn);

  EXPECT_EQ(a.num_subqueries, b.num_subqueries);
  EXPECT_EQ(a.num_equivalent_pairs, b.num_equivalent_pairs);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.associated_queries, b.associated_queries);
  EXPECT_EQ(a.overlapping, b.overlapping);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_EQ(a.clusters[c].canonical_key, b.clusters[c].canonical_key);
    EXPECT_EQ(a.clusters[c].query_indices, b.clusters[c].query_indices);
    EXPECT_EQ(a.clusters[c].occurrence_count, b.clusters[c].occurrence_count);
    // Candidate clusters carry their plan, the others none; both runs
    // re-derive each candidate as the same node of the same query.
    EXPECT_EQ(a.clusters[c].candidate, b.clusters[c].candidate);
  }
}

TEST_P(ClustererDeterminismP, ExtractAllMatchesPerQueryExtract) {
  CloudWorkloadSpec spec;
  spec.projects = 2;
  spec.queries = 15;
  spec.min_rows = 60;
  spec.max_rows = 100;
  spec.subquery_pool = 6;
  spec.seed = GetParam();
  GeneratedWorkload wk = GenerateCloudWorkload(spec);
  PlanBuilder builder(&wk.db->catalog());
  std::vector<PlanNodePtr> queries;
  for (const auto& sql : wk.sql) {
    auto plan = builder.BuildFromSql(sql);
    ASSERT_TRUE(plan.ok());
    queries.push_back(plan.value());
  }
  SubqueryExtractor extractor;
  ThreadPool pool(4);
  const auto all = extractor.ExtractAll(queries, &pool);
  ASSERT_EQ(all.size(), queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto expected = extractor.Extract(queries[qi]);
    ASSERT_EQ(all[qi].size(), expected.size()) << "query " << qi;
    for (size_t s = 0; s < expected.size(); ++s) {
      EXPECT_TRUE(all[qi][s]->Equals(*expected[s]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClustererDeterminismP,
                         ::testing::Values(41, 42, 43));

}  // namespace
}  // namespace autoview
