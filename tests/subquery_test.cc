#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <unordered_map>

#include "analysis_oracle.h"
#include "catalog/catalog.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "generators.h"
#include "plan/builder.h"
#include "plan/canonical.h"
#include "subquery/clusterer.h"
#include "subquery/extractor.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace autoview {
namespace {

class SubqueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .AddTable(TableSchema(
                        "user_memo", {{"user_id", ColumnType::kInt64},
                                      {"memo", ColumnType::kString},
                                      {"dt", ColumnType::kString},
                                      {"memo_type", ColumnType::kString}}))
                    .ok());
    ASSERT_TRUE(catalog_
                    .AddTable(TableSchema(
                        "user_action", {{"user_id", ColumnType::kInt64},
                                        {"action", ColumnType::kString},
                                        {"type", ColumnType::kInt64},
                                        {"dt", ColumnType::kString}}))
                    .ok());
  }

  PlanNodePtr MustBuild(const std::string& sql) {
    PlanBuilder builder(&catalog_);
    auto r = builder.BuildFromSql(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.ok() ? r.value() : nullptr;
  }

  Catalog catalog_;
};

constexpr const char* kFig2Sql =
    "select t1.user_id, count(*) as cnt from ("
    "select user_id, memo from user_memo "
    "where dt = '1010' and memo_type = 'pen') t1 "
    "inner join (select user_id, action from user_action "
    "where type = 1 and dt = '1010') t2 "
    "on t1.user_id = t2.user_id group by t1.user_id";

TEST_F(SubqueryTest, ExtractsFig2Subqueries) {
  auto q = MustBuild(kFig2Sql);
  SubqueryExtractor extractor;
  auto subs = extractor.Extract(q);
  // s3 (Join), s1 (left Project), s2 (right Project) — pre-order.
  ASSERT_EQ(subs.size(), 3u);
  EXPECT_EQ(subs[0]->op(), PlanOp::kJoin);
  EXPECT_EQ(subs[1]->op(), PlanOp::kProject);
  EXPECT_EQ(subs[2]->op(), PlanOp::kProject);
}

TEST_F(SubqueryTest, IncludeRootOption) {
  auto q = MustBuild(kFig2Sql);
  ExtractorOptions opts;
  opts.include_root = true;
  SubqueryExtractor extractor(opts);
  auto subs = extractor.Extract(q);
  ASSERT_EQ(subs.size(), 4u);
  EXPECT_EQ(subs[0]->op(), PlanOp::kAggregate);
}

TEST_F(SubqueryTest, MinOperatorsFilters) {
  auto q = MustBuild("SELECT user_id AS u FROM user_memo");
  ExtractorOptions opts;
  opts.include_root = true;
  opts.min_operators = 3;
  EXPECT_TRUE(SubqueryExtractor(opts).Extract(q).empty());
  opts.min_operators = 2;
  EXPECT_EQ(SubqueryExtractor(opts).Extract(q).size(), 1u);
}

TEST_F(SubqueryTest, ClusterEquivalentSubqueriesAcrossQueries) {
  // Two queries sharing the filtered user_action subquery; the second
  // spells the conjunction in the opposite order.
  auto q1 = MustBuild(kFig2Sql);
  auto q2 = MustBuild(
      "select t2.user_id, count(*) as n from ("
      "select user_id, action from user_action "
      "where dt = '1010' and type = 1) t2 "
      "inner join (select user_id, memo from user_memo "
      "where memo_type = 'book') t3 "
      "on t2.user_id = t3.user_id group by t2.user_id");
  ASSERT_TRUE(q1 && q2);

  const std::vector<PlanNodePtr> plans = {q1, q2};
  auto analysis = testing::Analyze(SubqueryClusterer(), plans);
  EXPECT_EQ(analysis.num_queries, 2u);
  EXPECT_EQ(analysis.num_subqueries, 6u);
  // Exactly one cluster has two occurrences (the shared s2).
  size_t shared = 0;
  for (const auto& cluster : analysis.clusters) {
    if (cluster.occurrence_count == 2) {
      ++shared;
      EXPECT_EQ(cluster.query_indices.size(), 2u);
    }
  }
  EXPECT_EQ(shared, 1u);
  EXPECT_EQ(analysis.num_equivalent_pairs, 1u);
  // That cluster is the only candidate (min_sharing = 2).
  ASSERT_EQ(analysis.candidates.size(), 1u);
  // Both queries are associated.
  EXPECT_EQ(analysis.associated_queries.size(), 2u);
}

TEST_F(SubqueryTest, OverlapIsContainment) {
  auto q = MustBuild(kFig2Sql);
  auto s3 = q->child(0);
  auto s1 = s3->child(0);
  auto s2 = s3->child(1);
  EXPECT_TRUE(CanonicalPlansOverlap(*s3, *s1));
  EXPECT_TRUE(CanonicalPlansOverlap(*s1, *s3));
  EXPECT_FALSE(CanonicalPlansOverlap(*s1, *s2));
}

TEST_F(SubqueryTest, OverlapPairsInAnalysis) {
  // Three queries: q1 contains s1,s2,s3; q2 shares s3 (the join); q3
  // shares s1. Candidates: s3 (2 queries), s1 (2 queries); they overlap.
  auto q1 = MustBuild(kFig2Sql);
  auto q2 = MustBuild(
      "select t1.memo, count(*) as c from ("
      "select user_id, memo from user_memo "
      "where dt = '1010' and memo_type = 'pen') t1 "
      "inner join (select user_id, action from user_action "
      "where type = 1 and dt = '1010') t2 "
      "on t1.user_id = t2.user_id group by t1.memo");
  auto q3 = MustBuild(
      "select t1.user_id from ("
      "select user_id, memo from user_memo "
      "where dt = '1010' and memo_type = 'pen') t1 "
      "inner join user_action a on t1.user_id = a.user_id");
  ASSERT_TRUE(q1 && q2 && q3);
  const std::vector<PlanNodePtr> plans = {q1, q2, q3};
  auto analysis = testing::Analyze(SubqueryClusterer(), plans);
  // Candidates: join-cluster (q1, q2) and s1-cluster (q1, q2, q3); also
  // s2 appears in q1 and q2.
  EXPECT_GE(analysis.candidates.size(), 2u);
  EXPECT_GT(analysis.num_overlapping_pairs(), 0u);
}

TEST_F(SubqueryTest, CandidatePicksCheapestMember) {
  const std::vector<PlanNodePtr> plans = {MustBuild(kFig2Sql),
                                          MustBuild(kFig2Sql)};
  ASSERT_TRUE(plans[0] && plans[1]);
  // A pure cost oracle that prefers the second query's subplans: the
  // later member must win with its strictly lower cost, and the
  // candidate re-derived from the query must be that very node.
  std::unordered_map<const PlanNode*, size_t> owner;
  for (size_t qi = 0; qi < plans.size(); ++qi) {
    for (const PlanNodePtr& node : plans[qi]->Subtrees()) {
      owner.emplace(node.get(), qi);
    }
  }
  const SubqueryClusterer clusterer({}, [&owner](const PlanNode& plan) {
    return 100.0 - static_cast<double>(owner.at(&plan));
  });
  const WorkloadAnalysis analysis = testing::Analyze(clusterer, plans);
  ASSERT_EQ(analysis.candidates.size(), 3u);
  for (size_t c : analysis.candidates) {
    const PlanNodePtr& candidate = analysis.clusters[c].candidate;
    ASSERT_NE(candidate, nullptr);
    EXPECT_EQ(owner.at(candidate.get()), 1u);
  }
}

// With include_root the query's own root is a subquery. The candidate
// that stands for it must own its node: the caller's plan handle is
// gone by the time the candidate is read.

TEST_F(SubqueryTest, RootCandidateOutlivesQueryPlansInSession) {
  SubqueryClusterer::Options opts;
  opts.extractor.include_root = true;
  // Each re-derivation plans the query afresh, so the candidate is the
  // only handle left on its node.
  ClustererSession session(opts, nullptr,
                           [this](size_t) { return MustBuild(kFig2Sql); });
  std::string root_key;
  size_t root_operators = 0;
  {
    PlanNodePtr q1 = MustBuild(kFig2Sql);
    PlanNodePtr q2 = MustBuild(kFig2Sql);
    ASSERT_TRUE(q1 && q2);
    root_key = CanonicalKey(*q1);
    root_operators = q1->NumOperators();
    ASSERT_TRUE(session.IngestQuery(0, q1).ok());
    ASSERT_TRUE(session.IngestQuery(1, q2).ok());
  }
  const auto info = session.Candidate(root_key);
  ASSERT_TRUE(info.has_value());
  EXPECT_GT(info->plan.use_count(), 0);  // owning, not a dangling alias
  EXPECT_EQ(info->plan->NumOperators(), root_operators);
  EXPECT_EQ(CanonicalKey(*info->plan), root_key);
}

TEST_F(SubqueryTest, RootCandidateOutlivesQueryPlansInBatchAnalyses) {
  SubqueryClusterer::Options opts;
  opts.extractor.include_root = true;
  const SubqueryClusterer clusterer(opts);
  const PlanNodePtr reference = MustBuild(kFig2Sql);
  ASSERT_NE(reference, nullptr);
  const std::string root_key = CanonicalKey(*reference);

  // The clusterer drops each plan after extraction and re-derives the
  // candidate from a fresh plan it then drops too.
  const WorkloadAnalysis analysis = clusterer.AnalyzeStreaming(
      2, [this](size_t) { return MustBuild(kFig2Sql); });
  const SubqueryCluster* root = nullptr;
  for (const auto& cluster : analysis.clusters) {
    if (cluster.canonical_key == root_key) root = &cluster;
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(root->candidate, nullptr);
  EXPECT_GT(root->candidate.use_count(), 0);
  EXPECT_EQ(root->candidate->NumOperators(), reference->NumOperators());
  EXPECT_EQ(CanonicalKey(*root->candidate), root_key);
}

/// Execution-based equivalence: a semantic check of the canonical-form
/// detector (plan/canonical.h). Executes both plans and compares their
/// result bags with columns matched BY NAME (canonically-equivalent plans
/// may order their output columns differently). True when the bags are
/// equal on this data (evidence, not proof), false on a definite
/// counterexample, an error when the column-name sets differ or a plan
/// fails to execute.
Result<bool> VerifyEquivalenceByExecution(const Database& db,
                                          const PlanNode& a,
                                          const PlanNode& b) {
  Executor exec(&db);
  AV_ASSIGN_OR_RETURN(ExecResult ra, exec.Execute(a));
  AV_ASSIGN_OR_RETURN(ExecResult rb, exec.Execute(b));
  const Table& ta = ra.table;
  const Table& tb = rb.table;
  if (ta.num_columns() != tb.num_columns()) {
    return Status::InvalidArgument("plans have different output widths");
  }
  std::vector<size_t> mapping(ta.num_columns());
  for (size_t i = 0; i < ta.num_columns(); ++i) {
    size_t j = 0;
    while (j < tb.num_columns() && tb.columns[j].name != ta.columns[i].name) {
      ++j;
    }
    if (j == tb.num_columns()) {
      return Status::InvalidArgument("column name sets differ: " +
                                     ta.columns[i].name);
    }
    mapping[i] = j;
  }
  Table aligned;
  aligned.columns = ta.columns;
  for (const Row& row : tb.rows) {
    Row& reordered = aligned.rows.emplace_back();
    for (size_t j : mapping) reordered.push_back(row[j]);
  }
  return TablesEqualUnordered(ta, aligned);
}

TEST(VerifyTest, ExecutionVerificationAgreesWithCanonicalizer) {
  Database db;
  std::vector<Row> rows;
  for (int i = 0; i < 120; ++i) {
    rows.push_back({Value(int64_t{i % 12}), Value(int64_t{i % 7}),
                    Value(i % 2 == 0 ? "x" : "y")});
  }
  ASSERT_TRUE(db.AddTable(TableSchema("t", {{"a", ColumnType::kInt64},
                                            {"b", ColumnType::kInt64},
                                            {"tag", ColumnType::kString}}),
                          std::move(rows))
                  .ok());
  ASSERT_TRUE(db.ComputeAllStats().ok());
  PlanBuilder builder(&db.catalog());
  auto build = [&](const std::string& sql) {
    auto r = builder.BuildFromSql(sql);
    EXPECT_TRUE(r.ok()) << sql;
    return r.value();
  };

  // Conjunct order flipped: canonically equivalent, verified equal.
  auto p1 = build("SELECT a, b FROM t WHERE a = 3 AND b < 5");
  auto p2 = build("SELECT a, b FROM t WHERE b < 5 AND a = 3");
  auto same = VerifyEquivalenceByExecution(db, *p1, *p2);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_TRUE(same.value());

  // Column order flipped: matched by name, still equal.
  auto p3 = build("SELECT b, a FROM t WHERE a = 3 AND b < 5");
  auto by_name = VerifyEquivalenceByExecution(db, *p1, *p3);
  ASSERT_TRUE(by_name.ok());
  EXPECT_TRUE(by_name.value());

  // Different literal: definite counterexample.
  auto p4 = build("SELECT a, b FROM t WHERE a = 4 AND b < 5");
  auto diff = VerifyEquivalenceByExecution(db, *p1, *p4);
  ASSERT_TRUE(diff.ok());
  EXPECT_FALSE(diff.value());

  // Mismatched column sets cannot be compared.
  auto p5 = build("SELECT a, tag FROM t");
  EXPECT_FALSE(VerifyEquivalenceByExecution(db, *p1, *p5).ok());
}

TEST_F(SubqueryTest, EmptyWorkload) {
  auto analysis = testing::Analyze(SubqueryClusterer(), {});
  EXPECT_EQ(analysis.num_queries, 0u);
  EXPECT_EQ(analysis.num_subqueries, 0u);
  EXPECT_TRUE(analysis.candidates.empty());
}

TEST_F(SubqueryTest, KeyIndexOverlapsMatchAllPairsOnRandomPlans) {
  // Random plans with nested and repeated subtrees (a third of the joins
  // put one subtree on both sides), each also submitted alongside one of
  // its own subtrees, so candidates contain each other across queries.
  const std::vector<std::string> tables = {"user_memo", "user_action"};
  for (const uint64_t seed : {3u, 4u}) {
    Rng rng(seed);
    std::vector<PlanNodePtr> queries;
    for (int i = 0; i < 40; ++i) {
      const PlanNodePtr plan = testing::RandomPlan(catalog_, tables, 7, rng);
      const std::vector<PlanNodePtr> nodes = plan->Subtrees();
      queries.push_back(plan);
      queries.push_back(nodes[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(nodes.size()) - 1))]);
    }
    for (const size_t min_sharing : {1u, 2u}) {
      for (const size_t threads : {1u, 4u}) {
        ThreadPool pool(threads);
        SubqueryClusterer::Options options;
        options.extractor.include_root = true;
        options.min_sharing = min_sharing;
        options.pool = &pool;
        const auto a = testing::Analyze(SubqueryClusterer(options), queries);
        EXPECT_GT(a.num_overlapping_pairs(), 0u)
            << "seed " << seed << " min_sharing " << min_sharing;
        EXPECT_EQ(a.overlapping, testing::AllPairsOverlaps(a))
            << "seed " << seed << " min_sharing " << min_sharing
            << " threads " << threads;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Memory-bounded clustering: the key-index overlap detection and the
// chunked, session-folded analysis must be *bit-identical* to the
// oracle (tests/analysis_oracle.h) — the contract DESIGN.md §10 pins.

using testing::BuildWorkloadPlans;
using testing::ExpectAnalysesEquivalent;
using testing::OracleAnalyze;

TEST(ClustererScaleTest, KeyIndexOverlapMatchesAllPairs) {
  for (const uint64_t seed : {11u, 12u}) {
    CloudWorkloadSpec spec = Wk1Spec(0.6);
    spec.seed = seed;
    const GeneratedWorkload workload = GenerateCloudWorkload(spec);
    const auto plans = BuildWorkloadPlans(workload);

    const WorkloadAnalysis a = testing::Analyze(SubqueryClusterer(), plans);
    EXPECT_GT(a.num_overlapping_pairs(), 0u);
    EXPECT_EQ(a.overlapping, testing::AllPairsOverlaps(a));
    ExpectAnalysesEquivalent(OracleAnalyze(plans, {}), a);
  }
}

TEST(ClustererScaleTest, StreamingMatchesBatchAcrossChunksAndThreads) {
  const GeneratedWorkload workload = GenerateCloudWorkload(Wk2Spec(0.5));
  const auto plans = BuildWorkloadPlans(workload);

  std::vector<size_t> argmin_query;
  const WorkloadAnalysis oracle =
      OracleAnalyze(plans, {}, nullptr, &argmin_query);
  std::set<size_t> holds_argmin;
  for (size_t c : oracle.candidates) holds_argmin.insert(argmin_query[c]);
  ASSERT_FALSE(holds_argmin.empty());
  ASSERT_LT(holds_argmin.size(), plans.size());

  for (const size_t chunk : {1u, 7u, 1024u}) {
    for (const size_t threads : {1u, 4u}) {
      const auto calls = std::make_unique<std::atomic<int>[]>(plans.size());
      const auto query_fn = [&](size_t qi) {
        calls[qi].fetch_add(1, std::memory_order_relaxed);
        return plans[qi];
      };
      ThreadPool pool(threads);
      SubqueryClusterer::Options opts;
      opts.extract_chunk = chunk;
      opts.pool = &pool;
      const WorkloadAnalysis streaming =
          SubqueryClusterer(opts).AnalyzeStreaming(plans.size(), query_fn);
      ExpectAnalysesEquivalent(oracle, streaming);
      // Each query is planned once for extraction, and once more exactly
      // when it holds a candidate's least-cost member, whose plan the
      // final snapshot re-derives.
      for (size_t qi = 0; qi < plans.size(); ++qi) {
        EXPECT_EQ(calls[qi].load(), 1 + static_cast<int>(holds_argmin.count(qi)))
            << "query " << qi << " chunk " << chunk << " threads " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace autoview
