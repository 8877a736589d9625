#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "costmodel/traditional.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "generators.h"
#include "plan/builder.h"
#include "util/random.h"
#include "workload/generator.h"

namespace autoview {
namespace {

/// Uniform, independent data: the traditional estimator's assumptions
/// hold, so its cardinalities should be close to the truth. (The
/// workload generators deliberately *violate* these assumptions; this
/// suite pins down that the estimator itself is implemented correctly.)
class TraditionalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(3);
    std::vector<Row> rows;
    for (int i = 0; i < 1000; ++i) {
      const Value key(rng.UniformInt(0, 99));  // uniform
      const Value cat(rng.UniformInt(0, 9));   // uniform
      std::string tag = "s";
      tag += std::to_string(rng.UniformInt(0, 4));
      rows.push_back({key, cat, Value(std::move(tag))});
    }
    ASSERT_TRUE(db_.AddTable(TableSchema("facts",
                                         {{"key", ColumnType::kInt64},
                                          {"cat", ColumnType::kInt64},
                                          {"tag", ColumnType::kString}}),
                             std::move(rows))
                    .ok());
    std::vector<Row> dim_rows;
    for (int i = 0; i < 100; ++i) {
      dim_rows.push_back({Value(int64_t{i}), Value(rng.UniformInt(0, 4))});
    }
    ASSERT_TRUE(db_.AddTable(TableSchema("dims",
                                         {{"key", ColumnType::kInt64},
                                          {"grp", ColumnType::kInt64}}),
                             std::move(dim_rows))
                    .ok());
    ASSERT_TRUE(db_.ComputeAllStats().ok());
  }

  PlanNodePtr MustBuild(const std::string& sql) {
    PlanBuilder builder(&db_.catalog());
    auto r = builder.BuildFromSql(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.value();
  }

  double ActualRows(const PlanNodePtr& plan) {
    Executor exec(&db_);
    auto result = exec.Execute(*plan);
    EXPECT_TRUE(result.ok());
    return static_cast<double>(result.value().table.num_rows());
  }

  Database db_;
};

TEST_F(TraditionalTest, ScanCardinalityExact) {
  CardinalityEstimator card(&db_.catalog());
  auto plan = MustBuild("SELECT * FROM facts");
  EXPECT_EQ(card.EstimateRows(*plan), 1000.0);
}

TEST_F(TraditionalTest, EqualityFilterWithinFactorTwo) {
  CardinalityEstimator card(&db_.catalog());
  auto plan = MustBuild("SELECT * FROM facts WHERE cat = 3");
  const double est = card.EstimateRows(*plan);
  const double actual = ActualRows(plan);
  EXPECT_GT(est, actual / 2);
  EXPECT_LT(est, actual * 2);
}

TEST_F(TraditionalTest, StringEqualityUsesDistinctCount) {
  CardinalityEstimator card(&db_.catalog());
  auto plan = MustBuild("SELECT * FROM facts WHERE tag = 's1'");
  // 5 distinct tags -> ~200 rows.
  EXPECT_NEAR(card.EstimateRows(*plan), 200.0, 60.0);
}

TEST_F(TraditionalTest, RangeFilterTracksHistogram) {
  CardinalityEstimator card(&db_.catalog());
  auto plan = MustBuild("SELECT * FROM facts WHERE key < 25");
  const double actual = ActualRows(plan);
  EXPECT_NEAR(card.EstimateRows(*plan), actual, actual * 0.35 + 20);
}

TEST_F(TraditionalTest, ConjunctionUsesIndependence) {
  CardinalityEstimator card(&db_.catalog());
  auto plan = MustBuild("SELECT * FROM facts WHERE cat = 3 AND key < 50");
  // Independent columns: est ~ 1000 * 0.1 * 0.5 = 50.
  EXPECT_NEAR(card.EstimateRows(*plan), 50.0, 30.0);
}

TEST_F(TraditionalTest, JoinCardinalityWithinFactorTwo) {
  CardinalityEstimator card(&db_.catalog());
  auto plan = MustBuild(
      "SELECT f.cat FROM facts f INNER JOIN dims d ON f.key = d.key");
  const double actual = ActualRows(plan);  // every fact matches once
  const double est = card.EstimateRows(*plan->child(0));
  EXPECT_GT(est, actual / 2);
  EXPECT_LT(est, actual * 2);
}

TEST_F(TraditionalTest, AggregateBoundedByGroups) {
  CardinalityEstimator card(&db_.catalog());
  auto plan = MustBuild("SELECT cat, COUNT(*) AS c FROM facts GROUP BY cat");
  EXPECT_NEAR(card.EstimateRows(*plan), 10.0, 1e-9);
  auto global = MustBuild("SELECT COUNT(*) AS c FROM facts");
  EXPECT_EQ(card.EstimateRows(*global), 1.0);
}

TEST_F(TraditionalTest, OrAndNotSelectivities) {
  CardinalityEstimator card(&db_.catalog());
  auto either = MustBuild("SELECT * FROM facts WHERE cat = 1 OR cat = 2");
  EXPECT_NEAR(card.EstimateRows(*either), 190.0, 60.0);
  auto negated = MustBuild("SELECT * FROM facts WHERE NOT cat = 1");
  EXPECT_NEAR(card.EstimateRows(*negated), 900.0, 80.0);
}

TEST_F(TraditionalTest, PlanCostMonotoneInPlanSize) {
  TraditionalEstimator est(&db_.catalog(), Pricing{});
  auto scan = MustBuild("SELECT * FROM facts");
  auto join = MustBuild(
      "SELECT f.cat FROM facts f INNER JOIN dims d ON f.key = d.key");
  EXPECT_GT(est.EstimatePlanCost(*join), est.EstimatePlanCost(*scan));
  EXPECT_GT(est.EstimateViewScanCost(*scan), 0.0);
}

TEST_F(TraditionalTest, EstimateOnUniformDataIsAccurate) {
  // On assumption-friendly data the Optimizer baseline should land in
  // the right ballpark of the true A(q|v).
  TraditionalEstimator est(&db_.catalog(), Pricing{});
  Executor exec(&db_);
  auto query = MustBuild(
      "SELECT j.grp, COUNT(*) AS c FROM (SELECT f.cat AS cat, d.grp AS grp "
      "FROM facts f INNER JOIN dims d ON f.key = d.key) j GROUP BY j.grp");
  auto view = query->child(0);
  CostSample sample;
  sample.query = query;
  sample.view = view;
  sample.tables = {"facts", "dims"};
  const double predicted = est.Estimate(sample);
  EXPECT_GT(predicted, 0.0);
  // Truth: execute subquery-as-view rewrite is not needed here — just
  // sanity-bound against the full query cost.
  auto full = exec.Execute(*query);
  ASSERT_TRUE(full.ok());
  const double full_cost = Pricing{}.QueryCost(full.value().cost);
  EXPECT_LT(predicted, full_cost);
}

// ---------------------------------------------------------------------
// Bit-identity oracle: the recursive estimator that the bottom-up walk
// in EstimatePlanCost replaced. Every node re-estimates its subtree's
// rows, and every subtree re-derives its scanned tables.

/// EstimateBytes as a ScannedTables() loop over the recursive row count.
double OracleBytes(const Catalog& catalog, const CardinalityEstimator& card,
                   const PlanNode& plan) {
  double total_bytes = 0, total_rows = 0, total_cols = 0;
  for (const auto& table : plan.ScannedTables()) {
    const TableStats& stats = catalog.GetStats(table);
    total_bytes += static_cast<double>(stats.byte_size);
    total_rows += static_cast<double>(stats.row_count);
    auto schema = catalog.GetTable(table);
    if (schema.ok()) {
      total_cols += static_cast<double>(schema.value()->num_columns());
    }
  }
  const double avg_cell = total_rows > 0 && total_cols > 0
                              ? total_bytes / total_rows / total_cols
                              : 8.0;
  return card.EstimateRows(plan) * avg_cell *
         static_cast<double>(plan.num_output_columns());
}

/// Executor-style per-operator charging, recursing into every child.
double OracleCpuUnits(const CardinalityEstimator& card,
                      const CostConstants& consts, const PlanNode& plan) {
  double units = 0.0;
  switch (plan.op()) {
    case PlanOp::kTableScan:
      return consts.scan_row * card.EstimateRows(plan);
    case PlanOp::kFilter:
      units = consts.filter_row * card.EstimateRows(*plan.child(0));
      break;
    case PlanOp::kProject:
      units = consts.project_row * card.EstimateRows(*plan.child(0));
      break;
    case PlanOp::kJoin:
      units = consts.join_build_row * card.EstimateRows(*plan.child(1)) +
              consts.join_probe_row * card.EstimateRows(*plan.child(0)) +
              consts.join_output_row * card.EstimateRows(plan);
      break;
    case PlanOp::kAggregate:
      units = consts.agg_update_row * card.EstimateRows(*plan.child(0)) +
              consts.agg_output_row * card.EstimateRows(plan);
      break;
    case PlanOp::kSort: {
      const double n = card.EstimateRows(*plan.child(0));
      units = consts.sort_row * n * std::log2(n + 2.0);
      break;
    }
    case PlanOp::kLimit:
      units = consts.limit_row * card.EstimateRows(plan);
      break;
    case PlanOp::kDistinct:
      units = consts.distinct_row * card.EstimateRows(*plan.child(0));
      break;
  }
  for (const auto& child : plan.children()) {
    units += OracleCpuUnits(card, consts, *child);
  }
  return units;
}

double OraclePlanCost(const Catalog& catalog, const Pricing& pricing,
                      const PlanNode& plan) {
  const CardinalityEstimator card(&catalog);
  CostReport report;
  report.cpu_units = OracleCpuUnits(card, pricing.consts, plan);
  double peak = 0.0;
  for (const auto& node : plan.Subtrees()) {
    peak = std::max(peak, OracleBytes(catalog, card, *node));
  }
  report.peak_bytes = peak;
  report.cpu_units *= pricing.consts.SpillMultiplier(peak);
  return pricing.QueryCost(report);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// memcmp-compares EstimatePlanCost and EstimateBytes with the oracle on
/// every subtree of every plan; returns the number of subtrees checked.
size_t ExpectMatchesOracle(const Catalog& catalog,
                           const std::vector<PlanNodePtr>& plans) {
  const Pricing pricing;
  const TraditionalEstimator estimator(&catalog, pricing);
  const CardinalityEstimator card(&catalog);
  size_t checked = 0;
  for (const PlanNodePtr& plan : plans) {
    for (const PlanNodePtr& node : plan->Subtrees()) {
      const double cost = estimator.EstimatePlanCost(*node);
      const double oracle_cost = OraclePlanCost(catalog, pricing, *node);
      EXPECT_TRUE(SameBits(cost, oracle_cost))
          << cost << " vs " << oracle_cost << "\n" << node->ToString();
      const double bytes = card.EstimateBytes(*node);
      const double oracle_bytes = OracleBytes(catalog, card, *node);
      EXPECT_TRUE(SameBits(bytes, oracle_bytes))
          << bytes << " vs " << oracle_bytes << "\n" << node->ToString();
      ++checked;
    }
  }
  return checked;
}

TEST_F(TraditionalTest, PlanCostWalkMatchesRecursiveOracleOnRandomPlans) {
  // All eight operator kinds, joins with one subtree on both sides.
  const std::vector<std::string> tables = {"facts", "dims"};
  Rng rng(17);
  std::vector<PlanNodePtr> plans;
  for (int i = 0; i < 200; ++i) {
    plans.push_back(testing::RandomPlan(db_.catalog(), tables, 7, rng));
  }
  EXPECT_GT(ExpectMatchesOracle(db_.catalog(), plans), 200u);
}

TEST(TraditionalOracleTest, PlanCostWalkMatchesRecursiveOracleOnWk1) {
  const GeneratedWorkload workload = GenerateCloudWorkload(Wk1Spec(0.5));
  PlanBuilder builder(&workload.db->catalog());
  std::vector<PlanNodePtr> plans;
  for (const std::string& sql : workload.sql) {
    auto plan = builder.BuildFromSql(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plans.push_back(std::move(plan).value());
  }
  EXPECT_GT(ExpectMatchesOracle(workload.db->catalog(), plans),
            plans.size());
}

}  // namespace
}  // namespace autoview
