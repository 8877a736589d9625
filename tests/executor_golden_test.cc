// Golden cost and result pins for the executor. The CostReport is the
// reproduction's ground truth for the paper's fees, so a physical change
// to the engine must leave every field bit-identical and every result
// bag-equal. This suite pins, for every query of the scaled JOB and WK1
// presets, the base plan's and the rewritten plan's cpu_units,
// peak_bytes, output_rows, output_bytes and a digest of the sorted
// rendered rows. Doubles are compared exactly (hex-float literals). It
// also digests the paper's Table V path over the scaled JOB preset: the
// exact ground truth and two ExecuteSolution reports.
// The generator, clusterer and rewriter feed these plans too, so an
// intended change there also moves the pins; recapture them only then,
// never to absorb an executor change.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/autoview.h"
#include "engine/executor.h"
#include "engine/rewriter.h"
#include "engine/view_store.h"
#include "plan/builder.h"
#include "select/iterview.h"
#include "subquery/clusterer.h"
#include "workload/generator.h"

namespace autoview {
namespace {

struct PlanGolden {
  double cpu_units;
  double peak_bytes;
  uint64_t output_rows;
  uint64_t output_bytes;
  uint64_t digest;
};

struct QueryGolden {
  PlanGolden base;
  PlanGolden rewritten;
};

/// Views materialized for the rewritten plans: the clusterer's first
/// candidates, in candidate order.
constexpr size_t kMaxViews = 16;

/// FNV-1a over the rows rendered cell by cell and sorted, so the digest
/// depends on the bag of rows, not on their order.
uint64_t RowDigest(const Table& table) {
  std::vector<std::string> rendered;
  rendered.reserve(table.rows.size());
  for (const Row& row : table.rows) {
    std::string line;
    for (const Value& cell : row) {
      line += cell.ToString();
      line += '\x1f';
    }
    rendered.push_back(std::move(line));
  }
  std::sort(rendered.begin(), rendered.end());
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& line : rendered) {
    for (unsigned char c : line) {
      h = (h ^ c) * 0x100000001b3ULL;
    }
    h = (h ^ '\n') * 0x100000001b3ULL;
  }
  return h;
}

PlanGolden Pin(const ExecResult& result) {
  return {result.cost.cpu_units, result.cost.peak_bytes,
          result.cost.output_rows, result.cost.output_bytes,
          RowDigest(result.table)};
}

/// Executes every query of `workload` as planned and as rewritten over a
/// fixed view set (through the store's view index, as serving does);
/// returns one pin pair per query.
std::vector<QueryGolden> Measure(const GeneratedWorkload& workload) {
  std::vector<QueryGolden> out;
  Database* db = workload.db.get();
  PlanBuilder builder(&db->catalog());
  std::vector<PlanNodePtr> plans;
  for (const std::string& sql : workload.sql) {
    auto plan = builder.BuildFromSql(sql);
    EXPECT_TRUE(plan.ok()) << sql;
    if (!plan.ok()) return out;
    plans.push_back(plan.value());
  }

  Executor executor(db);
  const WorkloadAnalysis analysis = SubqueryClusterer().AnalyzeStreaming(
      plans.size(), [&plans](size_t qi) { return plans[qi]; });
  MaterializedViewStore store(db, ViewStoreOptions{});
  size_t num_views = 0;
  for (size_t c : analysis.candidates) {
    if (num_views == kMaxViews) break;
    auto view = store.Materialize(analysis.clusters[c].candidate, executor);
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    if (!view.ok()) return out;
    ++num_views;
  }
  EXPECT_GT(num_views, 0u);

  Rewriter rewriter(&db->catalog());
  size_t rewritten_queries = 0;
  for (const PlanNodePtr& plan : plans) {
    auto base = executor.Execute(*plan);
    EXPECT_TRUE(base.ok()) << base.status().ToString();
    size_t substitutions = 0;
    auto rewritten_plan = rewriter.RewriteAllIndexed(
        plan, store.view_index(), &substitutions, nullptr);
    EXPECT_TRUE(rewritten_plan.ok());
    if (!base.ok() || !rewritten_plan.ok()) return out;
    rewritten_queries += substitutions > 0;
    auto rewritten = executor.Execute(*rewritten_plan.value());
    EXPECT_TRUE(rewritten.ok()) << rewritten.status().ToString();
    if (!rewritten.ok()) return out;
    EXPECT_TRUE(TablesEqualUnordered(base.value().table,
                                     rewritten.value().table));
    out.push_back({Pin(base.value()), Pin(rewritten.value())});
  }
  EXPECT_GT(rewritten_queries, 0u);
  return out;
}

void ExpectPlanEq(const PlanGolden& want, const PlanGolden& got,
                  const std::string& what) {
  // Exact double equality: the contract is bit-identical costs.
  EXPECT_EQ(want.cpu_units, got.cpu_units) << what;
  EXPECT_EQ(want.peak_bytes, got.peak_bytes) << what;
  EXPECT_EQ(want.output_rows, got.output_rows) << what;
  EXPECT_EQ(want.output_bytes, got.output_bytes) << what;
  EXPECT_EQ(want.digest, got.digest) << what;
}

void ExpectGolden(const std::vector<QueryGolden>& want,
                  const std::vector<QueryGolden>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t q = 0; q < want.size(); ++q) {
    ExpectPlanEq(want[q].base, got[q].base,
                 "query " + std::to_string(q) + " base");
    ExpectPlanEq(want[q].rewritten, got[q].rewritten,
                 "query " + std::to_string(q) + " rewritten");
  }
}

GeneratedWorkload ScaledJob() {
  JobWorkloadSpec spec;
  spec.base_queries = 40;
  return GenerateJobWorkload(spec);
}

/// Operators the generated queries never reach: distinct, a nested-loop
/// join, min/max/avg, a global aggregate, and a sort and limit over a
/// plain projection.
constexpr const char* kOperatorQueries[] = {
    "select distinct user_id, type from p0_events where value < 50",
    "select distinct dt from p0_events",
    "select distinct a.user_id, b.item_id from (select user_id from "
    "p0_users where age > 60) a inner join (select item_id from p0_items "
    "where price < 100) b on a.user_id < b.item_id",
    "select a.user_id, b.user_id from (select user_id from p0_events "
    "where value > 97) a inner join (select user_id from p0_users where "
    "age > 66) b on a.user_id < b.user_id",
    "select user_id, max(value) as mx, min(value) as mn, avg(value) as av "
    "from p0_events group by user_id order by mx desc limit 7",
    "select item_id, value from p0_events order by value limit 10",
    "select count(*) as cnt from p0_logs",
};

GeneratedWorkload ScaledWk1() {
  GeneratedWorkload workload = GenerateCloudWorkload(Wk1Spec(0.25));
  for (const char* sql : kOperatorQueries) workload.sql.push_back(sql);
  return workload;
}

// clang-format off
const std::vector<QueryGolden> kJobGolden = {
    {{0x1.2a18cccccccddp+14, 0x1.0b18p+17, 1, 16, 0x31d3ff11a542fd8dULL},
     {0x1.9f99999999996p+12, 0x1.6728p+16, 1, 16, 0x31d3ff11a542fd8dULL}},
    {{0x1.2a18cccccccddp+14, 0x1.0b18p+17, 1, 16, 0x31d3ff11a542fd8dULL},
     {0x1.048ccccccccd9p+13, 0x1.6728p+16, 1, 16, 0x31d3ff11a542fd8dULL}},
    {{0x1.8cf6666666666p+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.9350000000001p+12, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.8cf6666666666p+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.1638p+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.d6e6666666667p+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.b843333333333p+12, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.d6e6666666667p+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.b843333333333p+12, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.cf2a9e5f57111p+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.5b5c744c7ac34p+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.cf227dae3a744p+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.5b54539b5e267p+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.a134a932fecc3p+15, 0x1.9008p+18, 1, 16, 0x2847f0eb71496029ULL},
     {0x1.f14ffffffffffp+12, 0x1.6728p+16, 1, 16, 0x2847f0eb71496029ULL}},
    {{0x1.a134a932fecc3p+15, 0x1.9008p+18, 1, 16, 0x2847f0eb71496029ULL},
     {0x1.f14ffffffffffp+12, 0x1.6728p+16, 1, 16, 0x2847f0eb71496029ULL}},
    {{0x1.53f8p+14, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.ad2b333333334p+13, 0x1.cccp+15, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.53f8p+14, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.ad2b333333334p+13, 0x1.cccp+15, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.e86003b215788p+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.7491d99f392acp+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.e847a19ebfa21p+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.7479778be3544p+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.8b96666666666p+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.9090000000001p+12, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.8b96666666666p+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.14d8p+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.b77b5a41f6113p+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.9a9e8837fd859p+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.b77b5a41f6113p+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.9a9e8837fd859p+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.0b68aec6ed29p+16, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.f9f48b83e1c67p+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.0b608e15d08c3p+16, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.f9e44a21a88ccp+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.d9dfdefc2091p+15, 0x1.9008p+18, 1, 16, 0x8f771a8228bc1240ULL},
     {0x1.bde2ee8c6ab6ap+15, 0x1.9008p+18, 1, 16, 0x8f771a8228bc1240ULL}},
    {{0x1.d9dfdefc2091p+15, 0x1.9008p+18, 1, 16, 0x8f771a8228bc1240ULL},
     {0x1.bde2ee8c6ab6ap+15, 0x1.9008p+18, 1, 16, 0x8f771a8228bc1240ULL}},
    {{0x1.641266666666bp+14, 0x1.0b18p+17, 1, 16, 0x2d9da621091f1a30ULL},
     {0x1.43bfffffffffp+13, 0x1.0b18p+17, 1, 16, 0x2d9da621091f1a30ULL}},
    {{0x1.641266666666bp+14, 0x1.0b18p+17, 1, 16, 0x2d9da621091f1a30ULL},
     {0x1.787fffffffff2p+13, 0x1.0b18p+17, 1, 16, 0x2d9da621091f1a30ULL}},
    {{0x1.d598p+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.9718p+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.d598p+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.9718p+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.8f6e666666666p+14, 0x1.0b18p+17, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.702e666666666p+14, 0x1.0b18p+17, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.8f6599999999ap+14, 0x1.0b18p+17, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.702599999999ap+14, 0x1.0b18p+17, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.d414ccccccccdp+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.b2a0000000001p+12, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.d414ccccccccdp+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.b2a0000000001p+12, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.0bbcea4f8a0dfp+16, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.fa9d02951b904p+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.0bbcea4f8a0dfp+16, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.fa9d02951b904p+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.f70f723ff6a77p+15, 0x1.9008p+18, 1, 16, 0x9889b619f87e7766ULL},
     {0x1.dbb4527f1d5a1p+15, 0x1.9008p+18, 1, 16, 0x9889b619f87e7766ULL}},
    {{0x1.f6fe73b65dbcap+15, 0x1.9008p+18, 1, 16, 0xa0b20919fcf8b72fULL},
     {0x1.dba353f5846f4p+15, 0x1.9008p+18, 1, 16, 0xa0b20919fcf8b72fULL}},
    {{0x1.a198000000017p+13, 0x1.6728p+16, 1, 16, 0x9f4596da0a854e1dULL},
     {0x1.2e1cccccccce4p+13, 0x1.6728p+16, 1, 16, 0x9f4596da0a854e1dULL}},
    {{0x1.a198000000017p+13, 0x1.6728p+16, 1, 16, 0x9f4596da0a854e1dULL},
     {0x1.2e1cccccccce4p+13, 0x1.6728p+16, 1, 16, 0x9f4596da0a854e1dULL}},
    {{0x1.9458ccccccccdp+14, 0x1.0b18p+17, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.7518ccccccccdp+14, 0x1.0b18p+17, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.9458ccccccccdp+14, 0x1.0b18p+17, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.7518ccccccccdp+14, 0x1.0b18p+17, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.469p+14, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.275p+14, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.4687333333333p+14, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.2747333333333p+14, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.2cd6666666684p+14, 0x1.0b18p+17, 1, 16, 0x550be2e2fe3f8f70ULL},
     {0x1.0f3800000001dp+14, 0x1.0b18p+17, 1, 16, 0x550be2e2fe3f8f70ULL}},
    {{0x1.2cd6666666684p+14, 0x1.0b18p+17, 1, 16, 0x550be2e2fe3f8f70ULL},
     {0x1.0f3800000001dp+14, 0x1.0b18p+17, 1, 16, 0x550be2e2fe3f8f70ULL}},
    {{0x1.b51faf9991a89p+15, 0x1.9008p+18, 1, 16, 0xb2020a201fd65789ULL},
     {0x1.9b267c84c4dc2p+15, 0x1.9008p+18, 1, 16, 0xb2020a201fd65789ULL}},
    {{0x1.b409ddc505724p+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.9a10aab038a5cp+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.2bc9d4b9de795p+16, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.1d5b6bb4e2339p+16, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.2bc5c461502aep+16, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.1d575b5c53e52p+16, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.0717333333333p+14, 0x1.cccp+15, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.4aep+13, 0x1.cccp+15, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.070599999999ap+14, 0x1.cccp+15, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.974cccccccccdp+13, 0x1.cccp+15, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.3c14p+14, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.7d63333333334p+13, 0x1.cccp+15, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.3c0b333333334p+14, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.7d5199999999ap+13, 0x1.cccp+15, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.5d14cccccccccp+14, 0x1.0b18p+17, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.68ap+13, 0x1.0b18p+17, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.5d14cccccccccp+14, 0x1.0b18p+17, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.68ap+13, 0x1.0b18p+17, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.99b4ccccccccfp+13, 0x1.6728p+16, 1, 16, 0x9c740f326102e5f9ULL},
     {0x1.24db333333336p+13, 0x1.6728p+16, 1, 16, 0x9c740f326102e5f9ULL}},
    {{0x1.99b4ccccccccfp+13, 0x1.6728p+16, 1, 16, 0x9c740f326102e5f9ULL},
     {0x1.24db333333336p+13, 0x1.6728p+16, 1, 16, 0x9c740f326102e5f9ULL}},
    {{0x1.73c6666666669p+14, 0x1.6728p+16, 1, 16, 0xd1993810fb16d7ddULL},
     {0x1.5628000000002p+14, 0x1.6728p+16, 1, 16, 0xd1993810fb16d7ddULL}},
    {{0x1.73c6666666669p+14, 0x1.6728p+16, 1, 16, 0xd1993810fb16d7ddULL},
     {0x1.5628000000002p+14, 0x1.6728p+16, 1, 16, 0xd1993810fb16d7ddULL}},
    {{0x1.56c999999999ap+14, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.b2ce666666666p+13, 0x1.cccp+15, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.56c0ccccccccdp+14, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.b2bcccccccccdp+13, 0x1.cccp+15, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.f8e854af318eep+15, 0x1.9008p+18, 1, 16, 0x99778e54bd395f3dULL},
     {0x1.f8e854af318eep+15, 0x1.9008p+18, 1, 16, 0x99778e54bd395f3dULL}},
    {{0x1.f7e2c43cde926p+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.f7e2c43cde926p+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.d563333333333p+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.b53cccccccccdp+12, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.d563333333333p+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.b53cccccccccdp+12, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.0203333333333p+14, 0x1.0b18p+17, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.40b7fffffffffp+13, 0x1.0b18p+17, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.0203333333333p+14, 0x1.0b18p+17, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.8d47fffffffffp+13, 0x1.0b18p+17, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.92c7333333305p+14, 0x1.0b18p+17, 1, 16, 0x31e121885efc3029ULL},
     {0x1.a129999999925p+13, 0x1.f9cp+15, 1, 16, 0x31e121885efc3029ULL}},
    {{0x1.92be666666638p+14, 0x1.0b18p+17, 1, 16, 0x31e121885efc3029ULL},
     {0x1.d5d7fffffff8ep+13, 0x1.f9ap+15, 1, 16, 0x31e121885efc3029ULL}},
    {{0x1.b96772b0e8f9cp+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.5f361f791ff6bp+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.b957314eafc02p+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.82812c2fea681p+15, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.6383cbcb74d13p+16, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.551562c6788b6p+16, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.637fbb72e682dp+16, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.5511526dea3dp+16, 0x1.9008p+18, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.8ee6666666666p+13, 0x1.6728p+16, 1, 16, 0x09db9b29815c16eeULL},
     {0x1.524b333333332p+13, 0x1.6728p+16, 1, 16, 0x09db9b29815c16eeULL}},
    {{0x1.8ee6666666666p+13, 0x1.6728p+16, 1, 16, 0x09db9b29815c16eeULL},
     {0x1.524b333333332p+13, 0x1.6728p+16, 1, 16, 0x09db9b29815c16eeULL}},
    {{0x1.8c9ccccccccdp+13, 0x1.6728p+16, 1, 16, 0xb5f680ffb4d98e95ULL},
     {0x1.500199999999cp+13, 0x1.6728p+16, 1, 16, 0xb5f680ffb4d98e95ULL}},
    {{0x1.8c9ccccccccdp+13, 0x1.6728p+16, 1, 16, 0xb5f680ffb4d98e95ULL},
     {0x1.500199999999cp+13, 0x1.6728p+16, 1, 16, 0xb5f680ffb4d98e95ULL}},
    {{0x1.5397333333334p+14, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.ac6999999999ap+13, 0x1.cccp+15, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.538599999999ap+14, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.ac46666666666p+13, 0x1.cccp+15, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.d71b333333333p+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.989b333333333p+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.d71b333333333p+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.989b333333333p+13, 0x1.6728p+16, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.9efccccccccecp+13, 0x1.6728p+16, 1, 16, 0x0ef57beb6321dd5aULL},
     {0x1.2b819999999b9p+13, 0x1.6728p+16, 1, 16, 0x0ef57beb6321dd5aULL}},
    {{0x1.9efccccccccecp+13, 0x1.6728p+16, 1, 16, 0x0ef57beb6321dd5aULL},
     {0x1.2b819999999b9p+13, 0x1.6728p+16, 1, 16, 0x0ef57beb6321dd5aULL}},
};

const std::vector<QueryGolden> kWk1Golden = {
    {{0x1.c071618a7d23bp+12, 0x1.6e81p+17, 3, 62, 0xa5a84b359a8528f2ULL},
     {0x1.c071618a7d23bp+12, 0x1.6e81p+17, 3, 62, 0xa5a84b359a8528f2ULL}},
    {{0x1.43c58629f48fbp+10, 0x1.38e4p+15, 3, 72, 0x212abb1d5e98c472ULL},
     {0x1.43c58629f48fbp+10, 0x1.38e4p+15, 3, 72, 0x212abb1d5e98c472ULL}},
    {{0x1.718cccccccccdp+12, 0x1.66e3p+17, 6, 144, 0xec2bf5070a2b9df2ULL},
     {0x1.499999999999ap+5, 0x1.38p+9, 6, 144, 0xec2bf5070a2b9df2ULL}},
    {{0x1.c68a121a61054p+11, 0x1.3b6ep+16, 5, 104, 0xf16f9b66677337f1ULL},
     {0x1.c68a121a61054p+11, 0x1.3b6ep+16, 5, 104, 0xf16f9b66677337f1ULL}},
    {{0x1.9d0cccccccccdp+10, 0x1.38e4p+15, 2, 41, 0xb79dc8b4d9d22f6bULL},
     {0x1.9d0cccccccccdp+10, 0x1.38e4p+15, 2, 41, 0xb79dc8b4d9d22f6bULL}},
    {{0x1.d036666666662p+12, 0x1.6e81p+17, 3, 62, 0x71d0aa2adb0363a7ULL},
     {0x1.d036666666662p+12, 0x1.6e81p+17, 3, 62, 0x71d0aa2adb0363a7ULL}},
    {{0x1.44e6666666666p+11, 0x1.3b6ep+16, 4, 96, 0x6e374530d9405406ULL},
     {0x1.2cccccccccccdp+4, 0x1.5p+8, 4, 96, 0x6e374530d9405406ULL}},
    {{0x1.85eccccccccc9p+11, 0x1.3b6ep+16, 3, 63, 0xd855751237518928ULL},
     {0x1.85eccccccccc9p+11, 0x1.3b6ep+16, 3, 63, 0xd855751237518928ULL}},
    {{0x1.8dc3333333331p+12, 0x1.40b4p+17, 2, 42, 0xda806c39a4e0dacfULL},
     {0x1.8dc3333333331p+12, 0x1.40b4p+17, 2, 42, 0xda806c39a4e0dacfULL}},
    {{0x1.b10cccccccccdp+10, 0x1.38e4p+15, 1, 34, 0xf5d0c5c13c207ebaULL},
     {0x1.b10cccccccccdp+10, 0x1.38e4p+15, 1, 34, 0xf5d0c5c13c207ebaULL}},
    {{0x1.c4e6666666668p+10, 0x1.38e4p+15, 5, 171, 0xba338dfdbf0e28f2ULL},
     {0x1.0c4cccccccccdp+9, 0x1.682p+11, 5, 171, 0xba338dfdbf0e28f2ULL}},
    {{0x1.b81ffffffffffp+12, 0x1.66e3p+17, 4, 84, 0xc8754980b819450bULL},
     {0x1.249999999999bp+10, 0x1.9d9p+13, 4, 84, 0xc8754980b819450bULL}},
    {{0x1.e81d454d94352p+11, 0x1.3b6ep+16, 5, 104, 0xa90bf0968861a65dULL},
     {0x1.e81d454d94352p+11, 0x1.3b6ep+16, 5, 104, 0xa90bf0968861a65dULL}},
    {{0x1.bfe6666666664p+12, 0x1.66e3p+17, 5, 104, 0x2da63d55700a6b3aULL},
     {0x1.bfe6666666664p+12, 0x1.66e3p+17, 5, 104, 0x2da63d55700a6b3aULL}},
    {{0x1.c56ccccccccccp+12, 0x1.6e81p+17, 120, 2880, 0xfd17a6865f250c50ULL},
     {0x1.c56ccccccccccp+12, 0x1.6e81p+17, 120, 2880, 0xfd17a6865f250c50ULL}},
    {{0x1.ba46666666665p+12, 0x1.66e3p+17, 3, 63, 0xb2f12abb9e73b039ULL},
     {0x1.9359999999999p+12, 0x1.66e3p+17, 3, 63, 0xb2f12abb9e73b039ULL}},
    {{0x1.9f8ea2a6ca1cbp+12, 0x1.40b4p+17, 5, 104, 0x1827d5034525cbf0ULL},
     {0x1.9f8ea2a6ca1cbp+12, 0x1.40b4p+17, 5, 104, 0x1827d5034525cbf0ULL}},
    {{0x1.aa2ccccccccccp+12, 0x1.66e3p+17, 2, 41, 0xb1c9456dd44c7bf5ULL},
     {0x1.aa2ccccccccccp+12, 0x1.66e3p+17, 2, 41, 0xb1c9456dd44c7bf5ULL}},
    {{0x1.9546666666667p+11, 0x1.3b6ep+16, 3, 63, 0xe001d9e7fa4f263cULL},
     {0x1.4ae6666666666p+9, 0x1.6abp+12, 3, 63, 0xe001d9e7fa4f263cULL}},
    {{0x1.40ep+12, 0x1.3628p+17, 13, 312, 0x234bdd992b891684ULL},
     {0x1.04p+6, 0x1.1ap+10, 13, 312, 0x234bdd992b891684ULL}},
    {{0x1.7dcccccccccccp+12, 0x1.6e81p+17, 25, 600, 0x2dca09deb0d3f047ULL},
     {0x1.0266666666666p+7, 0x1.14p+11, 25, 600, 0x2dca09deb0d3f047ULL}},
    {{0x1.f21ccccccccc9p+12, 0x1.6e81p+17, 1, 34, 0x1c69928d6e9599a9ULL},
     {0x1.ed80000000002p+10, 0x1.a6p+13, 1, 34, 0x1c69928d6e9599a9ULL}},
    {{0x1.84b3333333333p+10, 0x1.38e4p+15, 2, 41, 0xb5f872525974fc84ULL},
     {0x1.84b3333333333p+10, 0x1.38e4p+15, 2, 41, 0xb5f872525974fc84ULL}},
    {{0x1.40af09a028189p+12, 0x1.3628p+17, 10, 240, 0x981d34d5e552b1bdULL},
     {0x1.40af09a028189p+12, 0x1.3628p+17, 10, 240, 0x981d34d5e552b1bdULL}},
    {{0x1.c0efffffffffdp+12, 0x1.6e81p+17, 2, 41, 0x52bfc7b44f262285ULL},
     {0x1.c0efffffffffdp+12, 0x1.6e81p+17, 2, 41, 0x52bfc7b44f262285ULL}},
    {{0x1.49b3333333333p+12, 0x1.40b4p+17, 6, 144, 0x58ab212d570e231eULL},
     {0x1.49b3333333333p+12, 0x1.40b4p+17, 6, 144, 0x58ab212d570e231eULL}},
    {{0x1.038be3f871c5bp+13, 0x1.6e81p+17, 3, 98, 0x9250813fb2b126a4ULL},
     {0x1.22bc5cae93e0ep+11, 0x1.a6p+13, 3, 98, 0x9250813fb2b126a4ULL}},
    {{0x1.7113333333331p+11, 0x1.3b6ep+16, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.7433333333333p+8, 0x1.6abp+12, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.795999999999bp+10, 0x1.38e4p+15, 2, 41, 0x48b6a4324c16ec48ULL},
     {0x1.d4cccccccccc9p+7, 0x1.682p+11, 2, 41, 0x48b6a4324c16ec48ULL}},
    {{0x1.18f9999999992p+12, 0x1.3b6ep+16, 5, 104, 0xf0c83cbaf6e347efULL},
     {0x1.18f9999999992p+12, 0x1.3b6ep+16, 5, 104, 0xf0c83cbaf6e347efULL}},
    {{0x1.acdcccccccccap+12, 0x1.66e3p+17, 3, 63, 0x64a2a55a872238abULL},
     {0x1.acdcccccccccap+12, 0x1.66e3p+17, 3, 63, 0x64a2a55a872238abULL}},
    {{0x1.bd46666666663p+12, 0x1.66e3p+17, 5, 104, 0x49bf66508e9af937ULL},
     {0x1.9659999999997p+12, 0x1.66e3p+17, 5, 104, 0x49bf66508e9af937ULL}},
    {{0x1.7c3ffffffffffp+12, 0x1.6e81p+17, 19, 456, 0x8a3560de5c66dcaeULL},
     {0x1.7c3ffffffffffp+12, 0x1.6e81p+17, 19, 456, 0x8a3560de5c66dcaeULL}},
    {{0x1.720999999999ap+12, 0x1.66e3p+17, 6, 144, 0xec2bf5070a2b9df2ULL},
     {0x1.8800000000001p+5, 0x1.38p+9, 6, 144, 0xec2bf5070a2b9df2ULL}},
    {{0x1.c2def99c38ff3p+12, 0x1.6e81p+17, 4, 82, 0x63a57682adc5ad55ULL},
     {0x1.c2def99c38ff3p+12, 0x1.6e81p+17, 4, 82, 0x63a57682adc5ad55ULL}},
    {{0x1.87p+10, 0x1.38e4p+15, 2, 41, 0xbf8045a5e4fe2374ULL},
     {0x1.87p+10, 0x1.38e4p+15, 2, 41, 0xbf8045a5e4fe2374ULL}},
    {{0x1.408cccccccccdp+12, 0x1.3628p+17, 14, 336, 0xee8a56d504edc737ULL},
     {0x1.408cccccccccdp+12, 0x1.3628p+17, 14, 336, 0xee8a56d504edc737ULL}},
    {{0x1.b53e2e5749f03p+12, 0x1.6e81p+17, 3, 61, 0xf72f9db9872f3ceaULL},
     {0x1.fc24a5ed82b9fp+9, 0x1.a6p+13, 3, 61, 0xf72f9db9872f3ceaULL}},
    {{0x1.97p+12, 0x1.3628p+17, 1, 33, 0xb467f55a511c24f4ULL},
     {0x1.97p+12, 0x1.3628p+17, 1, 33, 0xb467f55a511c24f4ULL}},
    {{0x1.4219da71b562ep+12, 0x1.3628p+17, 13, 312, 0x9b24c1ecc0522749ULL},
     {0x1.4219da71b562ep+12, 0x1.3628p+17, 13, 312, 0x9b24c1ecc0522749ULL}},
    {{0x1.feb88b33db0c8p+12, 0x1.6e81p+17, 1, 34, 0x1c69928d6e9599a9ULL},
     {0x1.0ff77cce1c7f9p+11, 0x1.a6p+13, 1, 34, 0x1c69928d6e9599a9ULL}},
    {{0x1.d26cccccccca5p+12, 0x1.6e81p+17, 5, 104, 0xf596763a19a80798ULL},
     {0x1.d26cccccccca5p+12, 0x1.6e81p+17, 5, 104, 0xf596763a19a80798ULL}},
    {{0x1.93e6666666666p+10, 0x1.38e4p+15, 1, 20, 0x70ce64aed7b65fd8ULL},
     {0x1.93e6666666666p+10, 0x1.38e4p+15, 1, 20, 0x70ce64aed7b65fd8ULL}},
    {{0x1.0c2fffffffff3p+13, 0x1.3628p+17, 28, 933, 0x5ea593bbf29af53dULL},
     {0x1.d2dffffffffc1p+11, 0x1.d09p+14, 28, 933, 0x5ea593bbf29af53dULL}},
    {{0x1.6d2cccccccccbp+12, 0x1.3628p+17, 0, 0, 0xcbf29ce484222325ULL},
     {0x1.6d2cccccccccbp+12, 0x1.3628p+17, 0, 0, 0xcbf29ce484222325ULL}},
    {{0x1.7a4ccccccccccp+12, 0x1.6e81p+17, 10, 240, 0x77082a0754877432ULL},
     {0x1.7a4ccccccccccp+12, 0x1.6e81p+17, 10, 240, 0x77082a0754877432ULL}},
    {{0x1.4b8ccccccccccp+12, 0x1.40b4p+17, 13, 312, 0x2b7b460c125dbf3dULL},
     {0x1.4b8ccccccccccp+12, 0x1.40b4p+17, 13, 312, 0x2b7b460c125dbf3dULL}},
    {{0x1.a1b3333333333p+11, 0x1.3b6ep+16, 2, 42, 0xc6305be894b7d8ebULL},
     {0x1.a1b3333333333p+11, 0x1.3b6ep+16, 2, 42, 0xc6305be894b7d8ebULL}},
    {{0x1.fdfffffffffap+12, 0x1.6e81p+17, 5, 104, 0xc9cc8f3f28775986ULL},
     {0x1.fdfffffffffap+12, 0x1.6e81p+17, 5, 104, 0xc9cc8f3f28775986ULL}},
    {{0x1.4a59999999999p+12, 0x1.40b4p+17, 9, 216, 0xbf0fc488b87c19e5ULL},
     {0x1.4a59999999999p+12, 0x1.40b4p+17, 9, 216, 0xbf0fc488b87c19e5ULL}},
    {{0x1.898cccccccccbp+12, 0x1.3628p+17, 5, 104, 0xc77de3da813ba120ULL},
     {0x1.898cccccccccbp+12, 0x1.3628p+17, 5, 104, 0xc77de3da813ba120ULL}},
    {{0x1.40ep+12, 0x1.3628p+17, 13, 312, 0x234bdd992b891684ULL},
     {0x1.04p+6, 0x1.1ap+10, 13, 312, 0x234bdd992b891684ULL}},
    {{0x1.3f26666666667p+12, 0x1.3628p+17, 6, 144, 0xecda8e1ad16e0df4ULL},
     {0x1.3f26666666667p+12, 0x1.3628p+17, 6, 144, 0xecda8e1ad16e0df4ULL}},
    {{0x1.9efb6f7396e53p+12, 0x1.3628p+17, 5, 104, 0x8e33eb19ccdcdc4bULL},
     {0x1.c02dbdce5bab2p+10, 0x1.954p+13, 5, 104, 0x8e33eb19ccdcdc4bULL}},
    {{0x1.1267fffffffffp+13, 0x1.66e3p+17, 5, 104, 0xb0a4a6f91f3de585ULL},
     {0x1.1267fffffffffp+13, 0x1.66e3p+17, 5, 104, 0xb0a4a6f91f3de585ULL}},
    {{0x1.428p+10, 0x1.38e4p+15, 3, 72, 0x4d8b307cf84fa6b6ULL},
     {0x1.428p+10, 0x1.38e4p+15, 3, 72, 0x4d8b307cf84fa6b6ULL}},
    {{0x1.4af9999999999p+12, 0x1.40b4p+17, 9, 216, 0xd62a4f797ef275c1ULL},
     {0x1.4af9999999999p+12, 0x1.40b4p+17, 9, 216, 0xd62a4f797ef275c1ULL}},
    {{0x1.428p+10, 0x1.38e4p+15, 3, 72, 0x7f521c2fb6b2ba84ULL},
     {0x1.428p+10, 0x1.38e4p+15, 3, 72, 0x7f521c2fb6b2ba84ULL}},
    {{0x1.03f4ccccccccdp+13, 0x1.6e81p+17, 8, 264, 0x2ceed66bcc814df7ULL},
     {0x1.245ffffffffffp+11, 0x1.a6p+13, 8, 264, 0x2ceed66bcc814df7ULL}},
    {{0x1.ac89999999959p+12, 0x1.40b4p+17, 5, 104, 0x5b9bae9007519b27ULL},
     {0x1.ac89999999959p+12, 0x1.40b4p+17, 5, 104, 0x5b9bae9007519b27ULL}},
    {{0x1.dbccccccccccdp+12, 0x1.3628p+17, 500, 8000, 0xf4bfa38e90407704ULL},
     {0x1.dbccccccccccdp+12, 0x1.3628p+17, 500, 8000, 0xf4bfa38e90407704ULL}},
    {{0x1.020ccccccccccp+13, 0x1.3628p+17, 4, 72, 0xd61b5a98f89e8cddULL},
     {0x1.020ccccccccccp+13, 0x1.3628p+17, 4, 72, 0xd61b5a98f89e8cddULL}},
    {{0x1.1d133333333e9p+12, 0x1.dbp+13, 910, 14560, 0xde057612652c50c4ULL},
     {0x1.1d133333333e9p+12, 0x1.dbp+13, 910, 14560, 0xde057612652c50c4ULL}},
    {{0x1.40733333331e2p+13, 0x1.3628p+17, 2720, 43520, 0x985fdfad34fadbb4ULL},
     {0x1.40733333331e2p+13, 0x1.3628p+17, 2720, 43520, 0x985fdfad34fadbb4ULL}},
    {{0x1.2e59060677d78p+13, 0x1.60a8p+17, 7, 224, 0x85d72350521ebdbfULL},
     {0x1.2e59060677d78p+13, 0x1.60a8p+17, 7, 224, 0x85d72350521ebdbfULL}},
    {{0x1.2c6c718d78e65p+14, 0x1.3628p+17, 10, 160, 0xaa294daf19b42dc2ULL},
     {0x1.2c6c718d78e65p+14, 0x1.3628p+17, 10, 160, 0xaa294daf19b42dc2ULL}},
    {{0x1.0a3999999999ap+12, 0x1.b338p+15, 1, 8, 0xe84cd5b3d8355d44ULL},
     {0x1.0a3999999999ap+12, 0x1.b338p+15, 1, 8, 0xe84cd5b3d8355d44ULL}},
};
// clang-format on

TEST(ExecutorGoldenTest, ScaledJobCostsAndRowsArePinned) {
  ExpectGolden(kJobGolden, Measure(ScaledJob()));
}

TEST(ExecutorGoldenTest, ScaledWk1CostsAndRowsArePinned) {
  ExpectGolden(kWk1Golden, Measure(ScaledWk1()));
}

/// FNV-1a over a sequence of 64-bit words, doubles by bit pattern, so
/// one constant pins a long run of exact values.
class WordDigest {
 public:
  void Add(uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h_ = (h_ ^ ((word >> (8 * b)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void AddDouble(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

uint64_t ReportDigest(const EndToEndReport& report) {
  WordDigest d;
  d.Add(report.num_queries);
  d.AddDouble(report.raw_cost);
  d.AddDouble(report.raw_latency_min);
  d.Add(report.num_views);
  d.AddDouble(report.view_overhead);
  d.Add(report.num_rewritten);
  d.AddDouble(report.benefit);
  d.AddDouble(report.rewritten_latency_min);
  return d.value();
}

// The Table V path over the scaled JOB preset: exact ground truth (each
// applicable (query, view) pair rewritten with that one view and
// executed) and ExecuteSolution, which rewrites each query with all of
// its assigned views. The second solution assigns every applicable
// candidate to every row, so overlapping views are assigned together
// and the earlier view (in id order) hides the later one.
TEST(ExecutorGoldenTest, ScaledJobGroundTruthAndTableVArePinned) {
  GeneratedWorkload workload = ScaledJob();
  AutoViewSystem system(workload.db.get(), AutoViewOptions{});
  ASSERT_TRUE(system.LoadWorkload(workload.sql).ok());
  ASSERT_TRUE(system.BuildGroundTruth().ok());

  const auto& dataset = system.cost_dataset();
  const auto& pairs = system.cost_dataset_pairs();
  ASSERT_EQ(dataset.size(), pairs.size());
  WordDigest dataset_digest;
  for (size_t n = 0; n < dataset.size(); ++n) {
    dataset_digest.Add(pairs[n].first);
    dataset_digest.Add(pairs[n].second);
    dataset_digest.AddDouble(dataset[n].target);
  }
  const MvsProblem& problem = system.problem();
  WordDigest benefit_digest;
  for (const auto& row : problem.benefit) {
    benefit_digest.Add(row.size());
    for (double b : row) benefit_digest.AddDouble(b);
  }

  IterViewSelector iterview = IterViewSelector::IterView(100, 42);
  auto selected = iterview.Select(problem);
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  auto selected_report = system.ExecuteSolution(selected.value());
  ASSERT_TRUE(selected_report.ok()) << selected_report.status().ToString();

  const size_t nz = system.candidates().size();
  const auto& associated = system.analysis().associated_queries;
  MvsSolution everything;
  everything.z.assign(nz, true);
  everything.y.assign(associated.size(), std::vector<bool>(nz, false));
  size_t overlapping_assignments = 0;
  for (size_t row = 0; row < associated.size(); ++row) {
    for (size_t j = 0; j < nz; ++j) {
      const auto& members =
          system.analysis()
              .clusters[system.candidates()[j].cluster_index]
              .query_indices;
      everything.y[row][j] = std::binary_search(
          members.begin(), members.end(), associated[row]);
      if (!everything.y[row][j]) continue;
      for (size_t k = 0; k < j; ++k) {
        overlapping_assignments +=
            everything.y[row][k] && problem.overlap[j][k];
      }
    }
  }
  EXPECT_GT(overlapping_assignments, 0u);
  auto everything_report = system.ExecuteSolution(everything);
  ASSERT_TRUE(everything_report.ok())
      << everything_report.status().ToString();

  EXPECT_EQ(dataset.size(), 216u);
  EXPECT_EQ(dataset_digest.value(), 0xdd9f0f7c8a670de9ULL);
  EXPECT_EQ(benefit_digest.value(), 0x441c80f9d9fd5b72ULL);
  EXPECT_EQ(selected_report.value().num_rewritten, 80u);
  EXPECT_EQ(ReportDigest(selected_report.value()), 0xf501b6cf40b4d05dULL);
  EXPECT_EQ(everything_report.value().num_rewritten, 80u);
  EXPECT_EQ(ReportDigest(everything_report.value()), 0x18262df30c4ee0a3ULL);
}

}  // namespace
}  // namespace autoview
