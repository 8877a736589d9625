// Property suite for the parallelism contract: every pooled code path
// (batched Wide-Deep inference, subquery extraction + overlap
// detection) must produce results bit-identical to a 1-thread run under
// the same seed, for any worker count.

#include <gtest/gtest.h>

#include "core/autoview.h"
#include "costmodel/wide_deep.h"
#include "plan/builder.h"
#include "subquery/clusterer.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace autoview {
namespace {

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
