// Test oracle for the subquery pre-process step (§III): the clustering
// written out directly, with every occurrence's plan kept, each key
// rendered by CanonicalKey() per subquery, and overlap found by an
// all-pairs CanonicalPlansOverlap scan. The library's one clusterer
// (ClustererSession, behind SubqueryClusterer::AnalyzeStreaming) must
// match it field for field.

#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "plan/builder.h"
#include "plan/canonical.h"
#include "subquery/clusterer.h"
#include "subquery/extractor.h"
#include "workload/generator.h"

namespace autoview {
namespace testing {

inline std::vector<PlanNodePtr> BuildWorkloadPlans(const GeneratedWorkload& w) {
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

/// AnalyzeStreaming over an in-memory plan vector.
inline WorkloadAnalysis Analyze(const SubqueryClusterer& clusterer,
                                const std::vector<PlanNodePtr>& plans) {
  return clusterer.AnalyzeStreaming(plans.size(),
                                    [&plans](size_t qi) { return plans[qi]; });
}

/// Overlap table of `analysis`'s candidates by exhaustive pairwise scan.
inline std::vector<std::vector<size_t>> AllPairsOverlaps(
    const WorkloadAnalysis& analysis) {
  const size_t z = analysis.candidates.size();
  std::vector<std::vector<size_t>> overlapping(z);
  for (size_t j = 0; j < z; ++j) {
    for (size_t k = j + 1; k < z; ++k) {
      if (CanonicalPlansOverlap(
              *analysis.clusters[analysis.candidates[j]].candidate,
              *analysis.clusters[analysis.candidates[k]].candidate)) {
        overlapping[j].push_back(k);
      }
    }
  }
  return overlapping;
}

/// The oracle analysis of `plans` (null entries are skipped queries).
/// Clusters appear in first-appearance order; a candidate is the first
/// member of least cost (`cost_fn`, or the operator count). When
/// `argmin_query` is set it receives, per cluster, the query holding
/// the candidate member (candidate clusters only; others are unset).
inline WorkloadAnalysis OracleAnalyze(
    const std::vector<PlanNodePtr>& plans,
    const SubqueryClusterer::Options& options,
    const SubqueryClusterer::CostFn& cost_fn = nullptr,
    std::vector<size_t>* argmin_query = nullptr) {
  const auto cost = [&](const PlanNode& plan) {
    return cost_fn ? cost_fn(plan) : static_cast<double>(plan.NumOperators());
  };
  WorkloadAnalysis analysis;
  analysis.num_queries = plans.size();
  std::map<std::string, size_t> cluster_of_key;
  std::vector<std::vector<std::pair<size_t, PlanNodePtr>>> members;
  const SubqueryExtractor extractor(options.extractor);
  for (size_t qi = 0; qi < plans.size(); ++qi) {
    if (plans[qi] == nullptr) continue;
    for (const PlanNodePtr& sub : extractor.Extract(plans[qi])) {
      const std::string key = CanonicalKey(*sub);
      const auto [it, inserted] =
          cluster_of_key.emplace(key, analysis.clusters.size());
      if (inserted) {
        analysis.clusters.emplace_back();
        analysis.clusters.back().canonical_key = key;
        members.emplace_back();
      }
      members[it->second].emplace_back(qi, sub);
      ++analysis.num_subqueries;
    }
  }
  if (argmin_query != nullptr) argmin_query->assign(members.size(), 0);
  std::set<size_t> associated;
  for (size_t c = 0; c < members.size(); ++c) {
    SubqueryCluster& cluster = analysis.clusters[c];
    cluster.occurrence_count = members[c].size();
    analysis.num_equivalent_pairs += cluster.num_equivalent_pairs();
    const std::set<size_t> queries = [&] {
      std::set<size_t> q;
      for (const auto& member : members[c]) q.insert(member.first);
      return q;
    }();
    cluster.query_indices.assign(queries.begin(), queries.end());
    if (queries.size() < options.min_sharing) continue;
    size_t best = 0;
    for (size_t m = 1; m < members[c].size(); ++m) {
      if (cost(*members[c][m].second) < cost(*members[c][best].second)) {
        best = m;
      }
    }
    cluster.candidate = members[c][best].second;
    if (argmin_query != nullptr) (*argmin_query)[c] = members[c][best].first;
    analysis.candidates.push_back(c);
    associated.insert(queries.begin(), queries.end());
  }
  analysis.associated_queries.assign(associated.begin(), associated.end());
  analysis.overlapping = AllPairsOverlaps(analysis);
  return analysis;
}

/// `actual` matches the oracle `expected` over the same plan objects:
/// every cluster field, the very same member node as each candidate
/// cluster's plan (so an argmin that picks an equal-looking but
/// different member fails) and a null candidate for the others, and the
/// candidate, association and overlap tables.
inline void ExpectAnalysesEquivalent(const WorkloadAnalysis& expected,
                                     const WorkloadAnalysis& actual) {
  EXPECT_EQ(expected.num_queries, actual.num_queries);
  EXPECT_EQ(expected.num_subqueries, actual.num_subqueries);
  EXPECT_EQ(expected.num_equivalent_pairs, actual.num_equivalent_pairs);
  ASSERT_EQ(expected.candidates, actual.candidates);
  ASSERT_EQ(expected.clusters.size(), actual.clusters.size());
  std::vector<bool> is_candidate(expected.clusters.size(), false);
  for (size_t c : expected.candidates) is_candidate[c] = true;
  for (size_t c = 0; c < expected.clusters.size(); ++c) {
    const SubqueryCluster& e = expected.clusters[c];
    const SubqueryCluster& a = actual.clusters[c];
    EXPECT_EQ(e.canonical_key, a.canonical_key);
    EXPECT_EQ(e.occurrence_count, a.occurrence_count);
    EXPECT_EQ(e.query_indices, a.query_indices);
    if (!is_candidate[c]) {
      EXPECT_EQ(a.candidate, nullptr) << "non-candidate cluster " << c;
      continue;
    }
    ASSERT_NE(e.candidate, nullptr);
    EXPECT_EQ(e.candidate.get(), a.candidate.get())
        << "candidate cluster " << c;
  }
  EXPECT_EQ(expected.associated_queries, actual.associated_queries);
  EXPECT_EQ(expected.overlapping, actual.overlapping);
}

}  // namespace testing
}  // namespace autoview
