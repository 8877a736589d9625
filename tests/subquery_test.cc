#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "catalog/catalog.h"
#include "engine/database.h"
#include "generators.h"
#include "plan/builder.h"
#include "plan/canonical.h"
#include "subquery/clusterer.h"
#include "subquery/extractor.h"
#include "subquery/verify.h"
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

  SubqueryClusterer clusterer;
  auto analysis = clusterer.Analyze({q1, q2});
  EXPECT_EQ(analysis.num_queries, 2u);
  EXPECT_EQ(analysis.num_subqueries, 6u);
  // Exactly one cluster has two occurrences (the shared s2).
  size_t shared = 0;
  for (const auto& cluster : analysis.clusters) {
    if (cluster.num_occurrences() == 2) {
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
  SubqueryClusterer clusterer;
  auto analysis = clusterer.Analyze({q1, q2, q3});
  // Candidates: join-cluster (q1, q2) and s1-cluster (q1, q2, q3); also
  // s2 appears in q1 and q2.
  EXPECT_GE(analysis.candidates.size(), 2u);
  EXPECT_GT(analysis.num_overlapping_pairs(), 0u);
}

TEST_F(SubqueryTest, CandidatePicksCheapestMember) {
  auto q1 = MustBuild(kFig2Sql);
  auto q2 = MustBuild(kFig2Sql);
  ASSERT_TRUE(q1 && q2);
  // Cost oracle that prefers the second query's plans.
  int calls = 0;
  SubqueryClusterer::Options opts;
  SubqueryClusterer clusterer(opts, [&](const PlanNode&) {
    return static_cast<double>(100 - (calls++));
  });
  auto analysis = clusterer.Analyze({q1, q2});
  for (const auto& cluster : analysis.clusters) {
    ASSERT_NE(cluster.candidate, nullptr);
  }
  EXPECT_GT(calls, 0);
}

// With include_root the query's own root is a subquery. The candidate
// that stands for it must own its node: the caller's plan handle is
// gone by the time the candidate is read.

TEST_F(SubqueryTest, RootCandidateOutlivesQueryPlansInSession) {
  SubqueryClusterer::Options opts;
  opts.extractor.include_root = true;
  ClustererSession session(opts);
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

  // AnalyzeStreaming keeps only the argmin subplan of a plan it drops
  // after the chunk; Analyze gets plans the caller then drops.
  const WorkloadAnalysis streamed = clusterer.AnalyzeStreaming(
      2, [this](size_t) { return MustBuild(kFig2Sql); });
  const WorkloadAnalysis batch =
      clusterer.Analyze({MustBuild(kFig2Sql), MustBuild(kFig2Sql)});
  for (const WorkloadAnalysis* analysis : {&streamed, &batch}) {
    const SubqueryCluster* root = nullptr;
    for (const auto& cluster : analysis->clusters) {
      if (cluster.canonical_key == root_key) root = &cluster;
    }
    ASSERT_NE(root, nullptr);
    ASSERT_NE(root->candidate, nullptr);
    EXPECT_GT(root->candidate.use_count(), 0);
    EXPECT_EQ(root->candidate->NumOperators(), reference->NumOperators());
    EXPECT_EQ(CanonicalKey(*root->candidate), root_key);
  }
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
  SubqueryClusterer clusterer;
  auto analysis = clusterer.Analyze({});
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
        SubqueryClusterer::Options key_index;
        key_index.extractor.include_root = true;
        key_index.min_sharing = min_sharing;
        key_index.pool = &pool;
        SubqueryClusterer::Options all_pairs = key_index;
        all_pairs.overlap = SubqueryClusterer::OverlapAlgorithm::kAllPairs;
        const auto a = SubqueryClusterer(key_index).Analyze(queries);
        const auto b = SubqueryClusterer(all_pairs).Analyze(queries);
        EXPECT_GT(a.num_overlapping_pairs(), 0u)
            << "seed " << seed << " min_sharing " << min_sharing;
        EXPECT_EQ(a.overlapping, b.overlapping)
            << "seed " << seed << " min_sharing " << min_sharing
            << " threads " << threads;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Memory-bounded clustering: the key-index overlap detection and the
// one-pass streaming analysis must be *bit-identical* to the all-pairs
// oracle / batch path — the contract DESIGN.md §10 pins.

std::vector<PlanNodePtr> BuildWorkloadPlans(const GeneratedWorkload& w) {
  std::vector<PlanNodePtr> plans;
  plans.reserve(w.sql.size());
  PlanBuilder builder(&w.db->catalog());
  for (const auto& sql : w.sql) {
    auto r = builder.BuildFromSql(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    plans.push_back(r.ok() ? r.value() : nullptr);
  }
  return plans;
}

/// Everything except per-occurrence plans must agree; candidate plans
/// are compared by canonical key (the streaming path plans each query
/// itself, so pointer identity is not expected).
void ExpectAnalysesEquivalent(const WorkloadAnalysis& a,
                              const WorkloadAnalysis& b) {
  EXPECT_EQ(a.num_queries, b.num_queries);
  EXPECT_EQ(a.num_subqueries, b.num_subqueries);
  EXPECT_EQ(a.num_equivalent_pairs, b.num_equivalent_pairs);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_EQ(a.clusters[c].canonical_key, b.clusters[c].canonical_key);
    EXPECT_EQ(a.clusters[c].num_occurrences(),
              b.clusters[c].num_occurrences());
    EXPECT_EQ(a.clusters[c].query_indices, b.clusters[c].query_indices);
    ASSERT_NE(a.clusters[c].candidate, nullptr);
    ASSERT_NE(b.clusters[c].candidate, nullptr);
    EXPECT_EQ(CanonicalKey(*a.clusters[c].candidate),
              CanonicalKey(*b.clusters[c].candidate));
  }
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.associated_queries, b.associated_queries);
  EXPECT_EQ(a.overlapping, b.overlapping);
}

TEST(ClustererScaleTest, KeyIndexOverlapMatchesAllPairs) {
  for (const uint64_t seed : {11u, 12u}) {
    CloudWorkloadSpec spec = Wk1Spec(0.6);
    spec.seed = seed;
    const GeneratedWorkload workload = GenerateCloudWorkload(spec);
    const auto plans = BuildWorkloadPlans(workload);

    SubqueryClusterer::Options key_index;
    key_index.overlap = SubqueryClusterer::OverlapAlgorithm::kKeyIndex;
    SubqueryClusterer::Options all_pairs;
    all_pairs.overlap = SubqueryClusterer::OverlapAlgorithm::kAllPairs;

    const auto a = SubqueryClusterer(key_index).Analyze(plans);
    const auto b = SubqueryClusterer(all_pairs).Analyze(plans);
    EXPECT_GT(a.num_overlapping_pairs(), 0u);
    EXPECT_EQ(a.overlapping, b.overlapping);
    ExpectAnalysesEquivalent(a, b);
  }
}

TEST(ClustererScaleTest, StreamingMatchesBatchAcrossChunksAndThreads) {
  const GeneratedWorkload workload = GenerateCloudWorkload(Wk2Spec(0.5));
  const auto plans = BuildWorkloadPlans(workload);

  const WorkloadAnalysis batch = SubqueryClusterer().Analyze(plans);

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
      ExpectAnalysesEquivalent(batch, streaming);
      // One pass: each query is planned exactly once.
      for (size_t qi = 0; qi < plans.size(); ++qi) {
        EXPECT_EQ(calls[qi].load(), 1)
            << "query " << qi << " chunk " << chunk << " threads " << threads;
      }
      // The streaming path never retains member plans.
      for (const auto& cluster : streaming.clusters) {
        EXPECT_TRUE(cluster.occurrences.empty());
      }
    }
  }
}

TEST(ClustererScaleTest, BatchChunkSizeDoesNotChangeResults) {
  const GeneratedWorkload workload = GenerateCloudWorkload(Wk1Spec(0.4));
  const auto plans = BuildWorkloadPlans(workload);
  const WorkloadAnalysis base = SubqueryClusterer().Analyze(plans);
  for (const size_t chunk : {1u, 3u, 50u}) {
    SubqueryClusterer::Options opts;
    opts.extract_chunk = chunk;
    const WorkloadAnalysis chunked = SubqueryClusterer(opts).Analyze(plans);
    ExpectAnalysesEquivalent(base, chunked);
  }
}

}  // namespace
}  // namespace autoview
