#include <gtest/gtest.h>

#include <cstdio>

#include "core/autoview.h"
#include "plan/canonical.h"
#include "ilp/branch_and_bound.h"
#include "plan/builder.h"
#include "select/iterview.h"
#include "select/rlview.h"
#include "select/selector.h"
#include "workload/generator.h"

namespace autoview {
namespace {

CloudWorkloadSpec SmallCloudSpec() {
  CloudWorkloadSpec spec;
  spec.name = "mini";
  spec.projects = 3;
  spec.queries = 40;
  spec.min_rows = 300;
  spec.max_rows = 900;
  spec.subquery_pool = 6;
  spec.seed = 5;
  return spec;
}

TEST(GeneratorTest, CloudWorkloadParsesAndExecutes) {
  GeneratedWorkload wk = GenerateCloudWorkload(SmallCloudSpec());
  ASSERT_EQ(wk.sql.size(), 40u);
  EXPECT_EQ(wk.num_projects, 3u);
  EXPECT_GE(wk.db->TableNames().size(), 9u);  // >= 3 tables x 3 projects
  PlanBuilder builder(&wk.db->catalog());
  Executor exec(wk.db.get());
  size_t nonempty = 0;
  for (const auto& sql : wk.sql) {
    auto plan = builder.BuildFromSql(sql);
    ASSERT_TRUE(plan.ok()) << sql << "\n" << plan.status().ToString();
    auto result = exec.Execute(*plan.value());
    ASSERT_TRUE(result.ok()) << sql;
    nonempty += result.value().table.num_rows() > 0;
  }
  // Most queries should produce rows (sane predicates/joins).
  EXPECT_GT(nonempty, wk.sql.size() / 2);
}

TEST(GeneratorTest, JobWorkloadShape) {
  JobWorkloadSpec spec;
  spec.base_queries = 20;
  spec.min_rows = 300;
  spec.max_rows = 900;
  GeneratedWorkload job = GenerateJobWorkload(spec);
  EXPECT_EQ(job.sql.size(), 40u);  // twins double the count
  EXPECT_EQ(job.db->TableNames().size(), 21u);  // the IMDB-like schema
  PlanBuilder builder(&job.db->catalog());
  for (const auto& sql : job.sql) {
    auto plan = builder.BuildFromSql(sql);
    ASSERT_TRUE(plan.ok()) << sql << "\n" << plan.status().ToString();
  }
}

TEST(GeneratorTest, DeterministicUnderSeed) {
  GeneratedWorkload a = GenerateCloudWorkload(SmallCloudSpec());
  GeneratedWorkload b = GenerateCloudWorkload(SmallCloudSpec());
  ASSERT_EQ(a.sql.size(), b.sql.size());
  for (size_t i = 0; i < a.sql.size(); ++i) EXPECT_EQ(a.sql[i], b.sql[i]);
}

TEST(GeneratorTest, WorkloadsShareSubqueries) {
  GeneratedWorkload wk = GenerateCloudWorkload(SmallCloudSpec());
  PlanBuilder builder(&wk.db->catalog());
  std::vector<PlanNodePtr> plans;
  for (const auto& sql : wk.sql) {
    plans.push_back(builder.BuildFromSql(sql).value());
  }
  auto analysis = SubqueryClusterer().AnalyzeStreaming(
      plans.size(), [&plans](size_t qi) { return plans[qi]; });
  EXPECT_GT(analysis.num_equivalent_pairs, 0u);
  EXPECT_GT(analysis.candidates.size(), 0u);
  EXPECT_GT(analysis.associated_queries.size(), plans.size() / 3);
}

class SystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload_ = GenerateCloudWorkload(SmallCloudSpec());
    system_ = std::make_unique<AutoViewSystem>(workload_.db.get(),
                                               AutoViewOptions{});
    ASSERT_TRUE(system_->LoadWorkload(workload_.sql).ok());
    ASSERT_TRUE(system_->BuildGroundTruth().ok());
  }

  GeneratedWorkload workload_;
  std::unique_ptr<AutoViewSystem> system_;
};

TEST_F(SystemTest, GroundTruthProblemIsConsistent) {
  const MvsProblem& p = system_->problem();
  EXPECT_EQ(p.num_views(), system_->candidates().size());
  EXPECT_EQ(p.num_queries(), system_->analysis().associated_queries.size());
  EXPECT_TRUE(p.Validate().ok());
  for (size_t j = 0; j < p.num_views(); ++j) {
    EXPECT_GT(p.overhead[j], 0.0);
    EXPECT_GE(p.frequency[j], 2u);  // candidates are shared subqueries
  }
  // At least one applicable pair has positive benefit (computation is
  // actually saved by reusing a materialized view).
  bool positive = false;
  for (const auto& row : p.benefit) {
    for (double b : row) positive |= b > 0;
  }
  EXPECT_TRUE(positive);
}

TEST_F(SystemTest, DatasetTargetsMatchDefinition) {
  const auto& dataset = system_->cost_dataset();
  ASSERT_FALSE(dataset.empty());
  const auto& pairs = system_->cost_dataset_pairs();
  ASSERT_EQ(dataset.size(), pairs.size());
  for (size_t n = 0; n < dataset.size(); ++n) {
    const auto& sample = dataset[n];
    EXPECT_GT(sample.query_cost, 0.0);
    EXPECT_GT(sample.subquery_cost, 0.0);
    EXPECT_GE(sample.target, 0.0);
    // benefit[row][j] == A(q) - A(q|v) == query_cost - target.
    const auto& [row, j] = pairs[n];
    EXPECT_NEAR(system_->problem().benefit[row][j],
                sample.query_cost - sample.target, 1e-9);
  }
}

TEST_F(SystemTest, EndToEndExecutionImprovesCost) {
  // Pick views with the exact solver (small instance) and execute.
  BranchAndBoundSolver::Options opts;
  opts.max_nodes = 500000;
  BranchAndBoundSolver solver(opts);
  auto solution = solver.Solve(system_->problem());
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  ASSERT_GT(solution.value().utility, 0.0);

  auto report = system_->ExecuteSolution(solution.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().num_queries, workload_.sql.size());
  EXPECT_GT(report.value().num_views, 0u);
  EXPECT_GT(report.value().num_rewritten, 0u);
  EXPECT_GT(report.value().benefit, 0.0);
  // Actual end-to-end saving should be positive and close to the
  // predicted utility (both derive from the same deterministic engine).
  const double actual = report.value().benefit - report.value().view_overhead;
  EXPECT_GT(actual, 0.0);
  EXPECT_NEAR(actual, solution.value().utility,
              0.2 * solution.value().utility + 1e-9);
  EXPECT_GT(report.value().ratio(), 0.0);
  // Latency should improve too.
  EXPECT_LT(report.value().rewritten_latency_min,
            report.value().raw_latency_min);
}

TEST_F(SystemTest, RewritesPreserveResultsAcrossWorkload) {
  // For every (query, view) pair used in ground truth, the rewritten
  // query must produce the same rows as the original.
  const auto& pairs = system_->cost_dataset_pairs();
  Executor exec(workload_.db.get());
  MaterializedViewStore store(workload_.db.get());
  std::vector<const MaterializedView*> views;
  for (const auto& cand : system_->candidates()) {
    auto view = store.Materialize(cand.plan, exec);
    ASSERT_TRUE(view.ok());
    views.push_back(view.value());
  }
  Rewriter rewriter(&workload_.db->catalog());
  size_t checked = 0;
  for (size_t n = 0; n < pairs.size() && checked < 25; ++n) {
    const auto& [row, j] = pairs[n];
    const size_t qi = system_->analysis().associated_queries[row];
    bool changed = false;
    auto rewritten =
        rewriter.Rewrite(system_->queries()[qi], *views[j], &changed);
    ASSERT_TRUE(rewritten.ok());
    if (!changed) continue;
    auto original = exec.Execute(*system_->queries()[qi]);
    auto after = exec.Execute(*rewritten.value());
    ASSERT_TRUE(original.ok() && after.ok());
    EXPECT_TRUE(
        TablesEqualUnordered(original.value().table, after.value().table))
        << "query " << qi << " view " << j;
    ++checked;
  }
  EXPECT_GT(checked, 10u);
  ASSERT_TRUE(store.Clear().ok());
}

TEST_F(SystemTest, MetadataExportImportRoundTrip) {
  const std::string path =
      std::string(::testing::TempDir()) + "/autoview_meta.tsv";
  MetadataStore store(path);
  ASSERT_TRUE(system_->ExportMetadata(store).ok());
  auto imported = system_->ImportCostSamples(store);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  const auto& original = system_->cost_dataset();
  ASSERT_EQ(imported.value().size(), original.size());
  for (size_t n = 0; n < original.size(); ++n) {
    EXPECT_DOUBLE_EQ(imported.value()[n].target, original[n].target);
    EXPECT_DOUBLE_EQ(imported.value()[n].query_cost, original[n].query_cost);
    EXPECT_EQ(imported.value()[n].tables, original[n].tables);
    // The re-built plans must be semantically the same.
    EXPECT_TRUE(
        PlansEquivalent(*imported.value()[n].view, *original[n].view));
  }
  std::remove(path.c_str());
}

TEST_F(SystemTest, SelectorsProduceFeasibleSolutionsOnRealInstance) {
  const MvsProblem& p = system_->problem();
  IterViewSelector iterview = IterViewSelector::IterView(30, 3);
  auto iter_solution = iterview.Select(p);
  ASSERT_TRUE(iter_solution.ok());
  EXPECT_TRUE(IsFeasible(p, iter_solution.value().z, iter_solution.value().y));

  RLViewSelector::Options rl_opts;
  rl_opts.init_iterations = 5;
  rl_opts.episodes = 5;
  RLViewSelector rlview(rl_opts);
  auto rl_solution = rlview.Select(p);
  ASSERT_TRUE(rl_solution.ok());
  EXPECT_TRUE(IsFeasible(p, rl_solution.value().z, rl_solution.value().y));
  EXPECT_GT(rl_solution.value().utility, 0.0);
}

}  // namespace
}  // namespace autoview
