// Golden pins for the subquery pre-process step (§III) at Table I
// scale. The WK1-full workload (38.6k queries) is clustered through the
// batch entry point the advisors use, and one FNV-1a digest covers, in
// cluster order, each cluster's canonical key, occurrence count and
// query indices; then the candidate cluster ids, each candidate plan's
// CanonicalKey() and ToString(), the associated queries and the
// candidate overlap table. A change to extraction, clustering, the
// argmin rule, the cluster ordering or overlap detection moves the
// digest. plan_golden_test pins the plans these are computed from.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "plan/builder.h"
#include "plan/canonical.h"
#include "subquery/clusterer.h"
#include "workload/generator.h"

namespace autoview {
namespace {

class Fnv64 {
 public:
  void Bytes(std::string_view s) {
    for (unsigned char c : s) h_ = (h_ ^ c) * 0x100000001b3ULL;
    h_ = (h_ ^ 0xffU) * 0x100000001b3ULL;
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

uint64_t DigestAnalysis(const WorkloadAnalysis& analysis) {
  Fnv64 fnv;
  fnv.U64(analysis.num_queries);
  fnv.U64(analysis.num_subqueries);
  fnv.U64(analysis.num_equivalent_pairs);
  fnv.U64(analysis.clusters.size());
  for (const SubqueryCluster& cluster : analysis.clusters) {
    fnv.Bytes(cluster.canonical_key);
    fnv.U64(cluster.occurrence_count);
    fnv.U64(cluster.query_indices.size());
    for (size_t qi : cluster.query_indices) fnv.U64(qi);
  }
  fnv.U64(analysis.candidates.size());
  for (size_t c : analysis.candidates) {
    fnv.U64(c);
    const PlanNode& plan = *analysis.clusters[c].candidate;
    fnv.Bytes(CanonicalKey(plan));
    fnv.Bytes(plan.ToString());
  }
  fnv.U64(analysis.associated_queries.size());
  for (size_t qi : analysis.associated_queries) fnv.U64(qi);
  for (const auto& row : analysis.overlapping) {
    fnv.U64(row.size());
    for (size_t k : row) fnv.U64(k);
  }
  return fnv.value();
}

TEST(AnalysisGoldenTest, Wk1FullAnalysisIsPinned) {
  const GeneratedWorkload wk = GenerateCloudWorkload(Wk1FullSpec());
  ASSERT_EQ(wk.sql.size(), 38600u);
  // Plans each query from its SQL on demand, as the serving benchmark
  // does, so only the clusterer's in-flight chunk of plans is alive.
  const auto query_fn = [&wk](size_t qi) -> PlanNodePtr {
    Result<PlanNodePtr> plan =
        PlanBuilder(&wk.db->catalog()).BuildFromSql(wk.sql[qi]);
    return plan.ok() ? std::move(plan).value() : nullptr;
  };
  const WorkloadAnalysis analysis =
      SubqueryClusterer().AnalyzeStreaming(wk.sql.size(), query_fn);
  EXPECT_EQ(analysis.num_subqueries, 123685u);
  EXPECT_EQ(analysis.clusters.size(), 72848u);
  EXPECT_EQ(analysis.candidates.size(), 8659u);
  const uint64_t digest = DigestAnalysis(analysis);
  EXPECT_EQ(digest, 0x09b2601aa5219450ULL) << std::hex << digest;
}

}  // namespace
}  // namespace autoview
