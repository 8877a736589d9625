#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/executor.h"
#include "engine/rewriter.h"
#include "engine/view_store.h"
#include "plan/builder.h"
#include "plan/canonical.h"
#include "util/metrics.h"
#include "util/random.h"

namespace autoview {
namespace {

/// Fixture loading the paper's Fig. 2 schema with synthetic rows.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    std::vector<Row> memo_rows;
    for (int i = 0; i < 200; ++i) {
      memo_rows.push_back({Value(int64_t{i % 40}),
                           Value("memo" + std::to_string(i % 7)),
                           Value(i % 3 == 0 ? "1010" : "1011"),
                           Value(i % 5 < 2 ? "pen" : "book")});
    }
    ASSERT_TRUE(db_.AddTable(TableSchema("user_memo",
                                         {{"user_id", ColumnType::kInt64},
                                          {"memo", ColumnType::kString},
                                          {"dt", ColumnType::kString},
                                          {"memo_type", ColumnType::kString}}),
                             std::move(memo_rows))
                    .ok());
    std::vector<Row> action_rows;
    for (int i = 0; i < 300; ++i) {
      action_rows.push_back({Value(int64_t{i % 50}),
                             Value("act" + std::to_string(i % 5)),
                             Value(int64_t{i % 4}),
                             Value(i % 3 == 0 ? "1010" : "1012")});
    }
    ASSERT_TRUE(
        db_.AddTable(TableSchema("user_action",
                                 {{"user_id", ColumnType::kInt64},
                                  {"action", ColumnType::kString},
                                  {"type", ColumnType::kInt64},
                                  {"dt", ColumnType::kString}}),
                     std::move(action_rows))
            .ok());
    ASSERT_TRUE(db_.ComputeAllStats().ok());
  }

  PlanNodePtr MustBuild(const std::string& sql) {
    PlanBuilder builder(&db_.catalog());
    auto r = builder.BuildFromSql(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.ok() ? r.value() : nullptr;
  }

  ExecResult MustExecute(const PlanNodePtr& plan) {
    Executor exec(&db_);
    auto r = exec.Execute(*plan);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : ExecResult{};
  }

  Database db_;
};

constexpr const char* kFig2Sql =
    "select t1.user_id, count(*) as cnt from ("
    "select user_id, memo from user_memo "
    "where dt = '1010' and memo_type = 'pen') t1 "
    "inner join (select user_id, action from user_action "
    "where type = 1 and dt = '1010') t2 "
    "on t1.user_id = t2.user_id group by t1.user_id";

TEST_F(EngineTest, ScanReturnsAllRows) {
  auto result = MustExecute(MustBuild("SELECT * FROM user_memo"));
  EXPECT_EQ(result.table.num_rows(), 200u);
  EXPECT_GT(result.cost.cpu_units, 0.0);
  EXPECT_EQ(result.cost.output_rows, 200u);
}

TEST_F(EngineTest, FilterSelectsMatchingRows) {
  auto result =
      MustExecute(MustBuild("SELECT * FROM user_memo WHERE dt = '1010'"));
  // i % 3 == 0 for 200 rows -> 67 matches.
  EXPECT_EQ(result.table.num_rows(), 67u);
  for (const auto& row : result.table.rows) {
    EXPECT_EQ(row[2].AsString(), "1010");
  }
}

TEST_F(EngineTest, FilterComparisonOperators) {
  EXPECT_EQ(MustExecute(MustBuild(
                            "SELECT * FROM user_action WHERE type < 2"))
                .table.num_rows(),
            150u);
  EXPECT_EQ(MustExecute(MustBuild(
                            "SELECT * FROM user_action WHERE type <= 2"))
                .table.num_rows(),
            225u);
  EXPECT_EQ(MustExecute(MustBuild(
                            "SELECT * FROM user_action WHERE type <> 0"))
                .table.num_rows(),
            225u);
  EXPECT_EQ(MustExecute(MustBuild(
                            "SELECT * FROM user_action WHERE NOT type = 0"))
                .table.num_rows(),
            225u);
  EXPECT_EQ(MustExecute(MustBuild("SELECT * FROM user_action WHERE type = 1 "
                                  "OR type = 2"))
                .table.num_rows(),
            150u);
}

TEST_F(EngineTest, ProjectSelectsAndRenames) {
  auto result =
      MustExecute(MustBuild("SELECT user_id AS uid, memo FROM user_memo"));
  EXPECT_EQ(result.table.num_columns(), 2u);
  EXPECT_EQ(result.table.columns[0].name, "uid");
  EXPECT_EQ(result.table.num_rows(), 200u);
}

TEST_F(EngineTest, HashJoinMatchesNestedLoopSemantics) {
  auto join = MustBuild(
      "SELECT m.user_id FROM user_memo m INNER JOIN user_action a "
      "ON m.user_id = a.user_id");
  auto result = MustExecute(join);
  // Manual count: each memo user_id u in [0,40) matches action rows with
  // user_id == u; user_ids 0..39 appear 5 times in memo (200/40) and 6
  // times in action (300/50 = 6 for each of 0..49).
  EXPECT_EQ(result.table.num_rows(), 200u * 6u);
}

TEST_F(EngineTest, NonEquiJoinFallsBackToNestedLoop) {
  // ON with an inequality only: no hash key, nested loop executes it.
  auto plan = MustBuild(
      "SELECT m.user_id FROM user_memo m INNER JOIN user_action a "
      "ON m.user_id < a.type");
  auto result = MustExecute(plan);
  // Verify against a manual count: memo user_id in [0,150); action type
  // in [0,4). Pairs with user_id < type.
  size_t expected = 0;
  auto memo = MustExecute(MustBuild("SELECT * FROM user_memo"));
  auto action = MustExecute(MustBuild("SELECT * FROM user_action"));
  for (const auto& m : memo.table.rows) {
    for (const auto& a : action.table.rows) {
      if (m[0].AsInt() < a[2].AsInt()) ++expected;
    }
  }
  EXPECT_EQ(result.table.num_rows(), expected);
}

TEST_F(EngineTest, EquiJoinWithResidualPredicate) {
  auto plan = MustBuild(
      "SELECT m.user_id FROM user_memo m INNER JOIN user_action a "
      "ON m.user_id = a.user_id AND a.type > 1");
  auto no_residual = MustBuild(
      "SELECT m.user_id FROM user_memo m INNER JOIN user_action a "
      "ON m.user_id = a.user_id WHERE a.type > 1");
  auto with = MustExecute(plan);
  auto manual = MustExecute(no_residual);
  EXPECT_TRUE(TablesEqualUnordered(with.table, manual.table));
  // The residual form avoids materializing non-matching pairs, so its
  // output-row charge is identical but the filter happens inside the
  // join: both must produce the same row count.
  EXPECT_EQ(with.table.num_rows(), manual.table.num_rows());
}

TEST_F(EngineTest, MultiKeyEquiJoin) {
  auto plan = MustBuild(
      "SELECT m.user_id FROM user_memo m INNER JOIN user_action a "
      "ON m.user_id = a.user_id AND m.dt = a.dt");
  auto result = MustExecute(plan);
  size_t expected = 0;
  auto memo = MustExecute(MustBuild("SELECT * FROM user_memo"));
  auto action = MustExecute(MustBuild("SELECT * FROM user_action"));
  for (const auto& m : memo.table.rows) {
    for (const auto& a : action.table.rows) {
      if (m[0].AsInt() == a[0].AsInt() && m[2].AsString() == a[3].AsString()) {
        ++expected;
      }
    }
  }
  EXPECT_EQ(result.table.num_rows(), expected);
}

TEST_F(EngineTest, GlobalAggregateOnEmptyInputYieldsOneRow) {
  auto result = MustExecute(
      MustBuild("SELECT COUNT(*) AS c FROM user_memo WHERE dt = 'nope'"));
  ASSERT_EQ(result.table.num_rows(), 1u);
  EXPECT_EQ(result.table.rows[0][0].AsInt(), 0);
}

TEST_F(EngineTest, AggregateFunctions) {
  auto result = MustExecute(MustBuild(
      "SELECT type, COUNT(*) AS c, SUM(user_id) AS s, MIN(user_id) AS mn, "
      "MAX(user_id) AS mx, AVG(user_id) AS av FROM user_action GROUP BY "
      "type"));
  ASSERT_EQ(result.table.num_rows(), 4u);  // type in {0,1,2,3}
  for (const auto& row : result.table.rows) {
    EXPECT_EQ(row[1].AsInt(), 75);  // 300 rows / 4 types
    EXPECT_NEAR(row[5].AsDouble(),
                row[2].AsDouble() / row[1].AsDouble(), 1e-9);
    EXPECT_LE(row[3].AsDouble(), row[4].AsDouble());
  }
}

TEST_F(EngineTest, Fig2QueryExecutes) {
  auto result = MustExecute(MustBuild(kFig2Sql));
  EXPECT_GT(result.table.num_rows(), 0u);
  EXPECT_EQ(result.table.num_columns(), 2u);
  // COUNT is positive per group.
  for (const auto& row : result.table.rows) {
    EXPECT_GT(row[1].AsInt(), 0);
  }
}

TEST_F(EngineTest, CostGrowsWithWork) {
  auto scan = MustExecute(MustBuild("SELECT * FROM user_memo"));
  auto query = MustExecute(MustBuild(kFig2Sql));
  EXPECT_GT(query.cost.cpu_units, scan.cost.cpu_units);
}

TEST_F(EngineTest, CostIsDeterministic) {
  auto a = MustExecute(MustBuild(kFig2Sql));
  auto b = MustExecute(MustBuild(kFig2Sql));
  EXPECT_EQ(a.cost.cpu_units, b.cost.cpu_units);
  EXPECT_EQ(a.cost.peak_bytes, b.cost.peak_bytes);
  EXPECT_EQ(a.cost.output_bytes, b.cost.output_bytes);
}

TEST_F(EngineTest, PricingConvertsUnits) {
  Pricing pricing;
  CostReport report;
  report.cpu_units = pricing.consts.units_per_minute;  // one core-minute
  report.peak_bytes = 2e9;                             // 2 GB
  EXPECT_NEAR(pricing.QueryCost(report), pricing.beta + 2 * pricing.gamma,
              1e-12);
  EXPECT_NEAR(pricing.StorageFee(3e9), 3 * pricing.alpha, 1e-12);
}

TEST_F(EngineTest, MaterializeAndRewritePreservesResults) {
  auto query = MustBuild(kFig2Sql);
  auto original = MustExecute(query);

  // Materialize the join subquery (s3 in the paper).
  auto s3 = query->child(0);
  Executor exec(&db_);
  MaterializedViewStore store(&db_);
  auto view = store.Materialize(s3, exec);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  Rewriter rewriter(&db_.catalog());
  bool changed = false;
  auto rewritten = rewriter.Rewrite(query, *view.value(), &changed);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_TRUE(changed);

  auto after = MustExecute(rewritten.value());
  EXPECT_TRUE(TablesEqualUnordered(original.table, after.table))
      << "original:\n"
      << original.table.ToString() << "rewritten:\n"
      << after.table.ToString();
  // The rewritten query must be cheaper: it scans the view instead of
  // filtering and joining the base tables.
  EXPECT_LT(after.cost.cpu_units, original.cost.cpu_units);
}

TEST_F(EngineTest, RewriteWithEquivalentButDifferentPlan) {
  auto query = MustBuild(kFig2Sql);
  // A view built from the commuted join: still equivalent canonically.
  auto commuted = MustBuild(
      "select t2.user_id as user_id_b, t1.user_id as user_id, t1.memo as "
      "memo, t2.action as action from ("
      "select user_id, action from user_action "
      "where type = 1 and dt = '1010') t2 "
      "inner join (select user_id, memo from user_memo "
      "where dt = '1010' and memo_type = 'pen') t1 "
      "on t1.user_id = t2.user_id");
  ASSERT_NE(commuted, nullptr);
  // Not asserting equivalence of these two (names differ); this test
  // covers rewriting when the view matches a *nested* subtree.
  auto s1 = query->child(0)->child(0);  // left Project subtree
  Executor exec(&db_);
  MaterializedViewStore store(&db_);
  auto view = store.Materialize(s1, exec);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  Rewriter rewriter(&db_.catalog());
  bool changed = false;
  auto rewritten = rewriter.Rewrite(query, *view.value(), &changed);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_TRUE(changed);
  auto original = MustExecute(query);
  auto after = MustExecute(rewritten.value());
  EXPECT_TRUE(TablesEqualUnordered(original.table, after.table));
}

TEST_F(EngineTest, RewriteAllAppliesNonOverlappingViews) {
  auto query = MustBuild(kFig2Sql);
  auto s1 = query->child(0)->child(0);
  auto s2 = query->child(0)->child(1);
  Executor exec(&db_);
  MaterializedViewStore store(&db_);
  auto v1 = store.Materialize(s1, exec);
  auto v2 = store.Materialize(s2, exec);
  ASSERT_TRUE(v1.ok() && v2.ok());

  Rewriter rewriter(&db_.catalog());
  size_t substitutions = 0;
  auto rewritten =
      rewriter.RewriteAll(query, {v1.value(), v2.value()}, &substitutions);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(substitutions, 2u);
  auto original = MustExecute(query);
  auto after = MustExecute(rewritten.value());
  EXPECT_TRUE(TablesEqualUnordered(original.table, after.table));
}

TEST_F(EngineTest, RewriteWithUnrelatedViewIsNoOp) {
  auto query = MustBuild(kFig2Sql);
  auto unrelated =
      MustBuild("SELECT user_id, action FROM user_action WHERE type = 3");
  Executor exec(&db_);
  MaterializedViewStore store(&db_);
  auto view = store.Materialize(unrelated, exec);
  ASSERT_TRUE(view.ok());
  Rewriter rewriter(&db_.catalog());
  bool changed = true;
  auto rewritten = rewriter.Rewrite(query, *view.value(), &changed);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_FALSE(changed);
  // No substitution: the identical plan object flows through.
  EXPECT_TRUE(rewritten.value()->Equals(*query));
}

TEST_F(EngineTest, RewriteAfterViewDroppedFallsBackToBaseTables) {
  auto query = MustBuild(kFig2Sql);
  auto s3 = query->child(0);
  Executor exec(&db_);
  MaterializedViewStore store(&db_);
  auto view = store.Materialize(s3, exec);
  ASSERT_TRUE(view.ok());
  MaterializedView copy = *view.value();  // descriptor outlives the drop
  ASSERT_TRUE(store.Drop(view.value()->id).ok());
  Rewriter rewriter(&db_.catalog());
  GlobalRobustness().Reset();
  bool changed = false;
  // The backing table is gone: the matched subtree keeps its base-table
  // form (no substitution, no dangling scan) and the fallback is
  // counted — the query still answers correctly.
  auto rewritten = rewriter.Rewrite(query, copy, &changed);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_FALSE(changed);
  EXPECT_TRUE(rewritten.value()->Equals(*query));
  EXPECT_EQ(GlobalRobustness().Read().rewrite_fallbacks, 1u);
  auto original = MustExecute(query);
  auto after = MustExecute(rewritten.value());
  EXPECT_TRUE(TablesEqualUnordered(original.table, after.table));
}

TEST_F(EngineTest, RewriteRestoresWideSchemaColumnOrder) {
  // 48-column table; the query projects the columns in reverse order
  // with renames, so BuildReplacement's name -> index matching (a map,
  // not the old per-column linear scan) must restore every position
  // exactly. Guards the wide-schema output-matching path.
  const size_t kCols = 48;
  std::vector<ColumnSchema> cols;
  for (size_t c = 0; c < kCols; ++c) {
    std::string name = "c";
    name += std::to_string(c);
    cols.push_back({std::move(name), ColumnType::kInt64});
  }
  std::vector<Row> rows;
  for (int64_t r = 0; r < 20; ++r) {
    Row row;
    for (size_t c = 0; c < kCols; ++c) {
      row.push_back(Value(r * 100 + static_cast<int64_t>(c)));
    }
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE(db_.AddTable(TableSchema("wide", cols), std::move(rows)).ok());
  ASSERT_TRUE(db_.ComputeAllStats().ok());

  std::string select = "SELECT ";
  for (size_t c = kCols; c-- > 0;) {
    select += "c";
    select += std::to_string(c);
    select += " AS r";
    select += std::to_string(c);
    if (c != 0) select += ", ";
  }
  auto query = MustBuild(select + " FROM wide WHERE c0 >= 0");
  ASSERT_NE(query, nullptr);
  auto original = MustExecute(query);
  ASSERT_EQ(original.table.num_columns(), kCols);

  Executor exec(&db_);
  MaterializedViewStore store(&db_);
  auto view = store.Materialize(query, exec);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  Rewriter rewriter(&db_.catalog());
  bool changed = false;
  auto rewritten = rewriter.Rewrite(query, *view.value(), &changed);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_TRUE(changed);
  auto after = MustExecute(rewritten.value());
  ASSERT_EQ(after.table.num_columns(), kCols);
  for (size_t c = 0; c < kCols; ++c) {
    EXPECT_EQ(after.table.columns[c].name, original.table.columns[c].name);
  }
  EXPECT_TRUE(TablesEqualUnordered(original.table, after.table));
}

TEST_F(EngineTest, SpillPenaltyKicksInAboveThreshold) {
  CostConstants consts;
  EXPECT_EQ(consts.SpillMultiplier(0.0), 1.0);
  EXPECT_EQ(consts.SpillMultiplier(consts.spill_threshold_bytes), 1.0);
  EXPECT_NEAR(consts.SpillMultiplier(2 * consts.spill_threshold_bytes),
              1.0 + consts.spill_factor, 1e-12);
  EXPECT_GT(consts.SpillMultiplier(8 * consts.spill_threshold_bytes),
            consts.SpillMultiplier(4 * consts.spill_threshold_bytes));
  // Disabled threshold never penalizes.
  CostConstants off;
  off.spill_threshold_bytes = 0;
  EXPECT_EQ(off.SpillMultiplier(1e12), 1.0);
}

TEST_F(EngineTest, ViewStoreLifecycle) {
  auto query = MustBuild(kFig2Sql);
  auto s3 = query->child(0);
  Executor exec(&db_);
  MaterializedViewStore store(&db_);
  auto view = store.Materialize(s3, exec);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_NE(store.FindByKey(view.value()->canonical_key), nullptr);
  EXPECT_GT(view.value()->byte_size, 0u);
  // Duplicate materialization rejected.
  EXPECT_FALSE(store.Materialize(s3, exec).ok());
  // Overhead is positive.
  Pricing pricing;
  EXPECT_GT(store.TotalOverhead(pricing), 0.0);
  // Dropping removes the backing table.
  const std::string table_name = view.value()->table_name;
  ASSERT_TRUE(store.Drop(view.value()->id).ok());
  EXPECT_FALSE(db_.GetTable(table_name).ok());
  EXPECT_EQ(store.size(), 0u);
}

TEST_F(EngineTest, StatsComputed) {
  const TableStats& stats = db_.catalog().GetStats("user_action");
  EXPECT_EQ(stats.row_count, 300u);
  EXPECT_GT(stats.byte_size, 0u);
  ASSERT_EQ(stats.columns.size(), 4u);
  EXPECT_EQ(stats.columns[0].distinct_count, 50.0);  // user_id 0..49
  EXPECT_EQ(stats.columns[2].min_value, 0.0);
  EXPECT_EQ(stats.columns[2].max_value, 3.0);
  // Histogram selectivity: type = 1 matches 1/4 of rows.
  const auto& hist = stats.columns[2].histogram;
  EXPECT_NEAR(hist.EqualitySelectivity(1.0, 4.0), 0.25, 0.1);
  EXPECT_NEAR(hist.LessThanSelectivity(2.0), 0.5, 0.15);
}

TEST_F(EngineTest, TypeMismatchRejected) {
  Database db;
  EXPECT_FALSE(db.AddTable(TableSchema("t", {{"a", ColumnType::kInt64}}),
                           {{Value("oops")}})
                   .ok());
  EXPECT_FALSE(db.AddTable(TableSchema("u", {{"a", ColumnType::kInt64},
                                             {"b", ColumnType::kInt64}}),
                           {{Value(int64_t{1})}})
                   .ok());
}

// The executor checks a bound expression's columns against the input it
// actually reads, once per operator: a plan built for a wider table than
// the one now stored gets an error, not an out-of-range read.
TEST_F(EngineTest, ColumnsPastTheInputWidthAreAnError) {
  Database db;
  const TableSchema wide("t", {{"a", ColumnType::kInt64},
                               {"b", ColumnType::kInt64},
                               {"c", ColumnType::kInt64}});
  ASSERT_TRUE(db.AddTable(wide, {{Value(int64_t{1}), Value(int64_t{2}),
                                  Value(int64_t{3})}})
                  .ok());
  auto scan = PlanNode::MakeScan(db.catalog(), "t");
  ASSERT_TRUE(scan.ok());
  auto c = Expr::Column(2, "c", ColumnType::kInt64);
  auto filter = PlanNode::MakeFilter(
      scan.value(),
      Expr::Compare(CompareOp::kGt, c, Expr::Literal(Value(int64_t{0}))));
  auto project = PlanNode::MakeProject(scan.value(), {{c, "c"}});
  auto join = PlanNode::MakeJoin(
      scan.value(), scan.value(),
      Expr::And({Expr::Compare(CompareOp::kEq,
                               Expr::Column(0, "a", ColumnType::kInt64),
                               Expr::Column(3, "a", ColumnType::kInt64)),
                 Expr::Compare(CompareOp::kLt, c,
                               Expr::Column(5, "c", ColumnType::kInt64))}));
  ASSERT_TRUE(filter.ok() && project.ok() && join.ok());
  Executor exec(&db);
  ASSERT_TRUE(exec.Execute(*filter.value()).ok());
  ASSERT_TRUE(exec.Execute(*project.value()).ok());
  ASSERT_TRUE(exec.Execute(*join.value()).ok());

  ASSERT_TRUE(db.DropTable("t").ok());
  ASSERT_TRUE(db.AddTable(TableSchema("t", {{"a", ColumnType::kInt64}}),
                          {{Value(int64_t{1})}})
                  .ok());
  for (const auto& plan : {filter.value(), project.value(), join.value()}) {
    auto result = exec.Execute(*plan);
    ASSERT_FALSE(result.ok()) << plan->ToString();
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(EngineTest, TablesEqualUnorderedDetectsDifferences) {
  const std::vector<OutputColumn> x = {{"x", ColumnType::kInt64}};
  const Table a = Table::FromRows(x, {{Value(int64_t{1})}, {Value(int64_t{2})}});
  EXPECT_TRUE(TablesEqualUnordered(
      a, Table::FromRows(x, {{Value(int64_t{2})}, {Value(int64_t{1})}})));
  EXPECT_FALSE(TablesEqualUnordered(
      a, Table::FromRows(x, {{Value(int64_t{2})},
                             {Value(int64_t{1})},
                             {Value(int64_t{3})}})));
  EXPECT_FALSE(TablesEqualUnordered(
      a, Table::FromRows(x, {{Value(int64_t{9})}, {Value(int64_t{1})}})));
}

TEST_F(EngineTest, TablesEqualUnorderedComparesCellsExactly) {
  // Both render "1.23457e+06" under %g; they are different numbers.
  const std::vector<OutputColumn> d = {{"d", ColumnType::kDouble}};
  EXPECT_FALSE(TablesEqualUnordered(Table::FromRows(d, {{Value(1234567.0)}}),
                                    Table::FromRows(d, {{Value(1234568.0)}})));
  // Ints past 2^53 that round to the same double stay apart.
  const int64_t big = (int64_t{1} << 53) + 1;
  const std::vector<OutputColumn> i = {{"i", ColumnType::kInt64}};
  EXPECT_FALSE(TablesEqualUnordered(Table::FromRows(i, {{Value(big)}}),
                                    Table::FromRows(i, {{Value(big - 1)}})));
  // Int 3 and double 3.0 in a double column compare equal.
  EXPECT_TRUE(TablesEqualUnordered(
      Table::FromRows(d, {{Value(int64_t{3})}, {Value(0.5)}}),
      Table::FromRows(d, {{Value(0.5)}, {Value(3.0)}})));
}

TEST_F(EngineTest, TablesEqualUnorderedChecksColumnTypes) {
  const Table ints =
      Table::FromRows({{"x", ColumnType::kInt64}}, {{Value(int64_t{1})}});
  const Table doubles =
      Table::FromRows({{"x", ColumnType::kDouble}}, {{Value(int64_t{1})}});
  EXPECT_FALSE(TablesEqualUnordered(ints, doubles));
  EXPECT_FALSE(TablesEqualUnordered(
      ints, Table::FromRows({{"y", ColumnType::kInt64}}, {{Value(int64_t{1})}})));
  EXPECT_TRUE(TablesEqualUnordered(doubles, doubles));
}

/// Keys whose %g renderings disagree with Value equality: 1234567.0 and
/// 1234568.0 both render "1.23457e+06", while int 1234567 and double
/// 1234567.0 are equal but render "1234567" and "1.23457e+06". Join,
/// group-by and distinct must agree with the `a = b` filter.
class KeyEqualityTest : public EngineTest {
 protected:
  void SetUp() override {
    EngineTest::SetUp();
    const std::vector<Value> left = {Value(1234567.0), Value(int64_t{1234567}),
                                     Value(1234568.0), Value(7.5)};
    const std::vector<Value> right = {Value(1234568.0), Value(1234567.0),
                                      Value(7.5), Value(1234569.0)};
    std::vector<Row> l_rows, r_rows, pair_rows;
    for (size_t i = 0; i < left.size(); ++i) {
      l_rows.push_back({Value(static_cast<int64_t>(i)), left[i]});
    }
    for (size_t j = 0; j < right.size(); ++j) {
      r_rows.push_back({Value(static_cast<int64_t>(10 + j)), right[j]});
    }
    for (const Row& l : l_rows) {
      for (const Row& r : r_rows) pair_rows.push_back({l[0], l[1], r[0], r[1]});
    }
    ASSERT_TRUE(db_.AddTable(TableSchema("l", {{"id", ColumnType::kInt64},
                                               {"a", ColumnType::kDouble}}),
                             std::move(l_rows))
                    .ok());
    ASSERT_TRUE(db_.AddTable(TableSchema("r", {{"id", ColumnType::kInt64},
                                               {"b", ColumnType::kDouble}}),
                             std::move(r_rows))
                    .ok());
    ASSERT_TRUE(db_.AddTable(TableSchema("p", {{"lid", ColumnType::kInt64},
                                               {"a", ColumnType::kDouble},
                                               {"rid", ColumnType::kInt64},
                                               {"b", ColumnType::kDouble}}),
                             std::move(pair_rows))
                    .ok());
    ASSERT_TRUE(db_.ComputeAllStats().ok());
  }

  Table Run(const std::string& sql) {
    PlanNodePtr plan = MustBuild(sql);
    return plan != nullptr ? MustExecute(plan).table : Table{};
  }

  int64_t FilterCount(const std::string& literal) {
    Table t = Run("SELECT count(*) AS cnt FROM l WHERE a = " + literal);
    return t.rows.empty() ? -1 : t.rows[0][0].AsInt();
  }
};

TEST_F(KeyEqualityTest, HashJoinMatchesEqualityFilter) {
  Table joined = Run(
      "SELECT l.id AS lid, r.id AS rid FROM l INNER JOIN r ON l.a = r.b");
  Table filtered = Run("SELECT lid, rid FROM p WHERE a = b");
  EXPECT_EQ(filtered.num_rows(), 4u);
  EXPECT_TRUE(TablesEqualUnordered(joined, filtered))
      << joined.ToString() << filtered.ToString();
}

TEST_F(KeyEqualityTest, GroupByMatchesEqualityFilter) {
  Table groups = Run("SELECT a, count(*) AS cnt FROM l GROUP BY a");
  EXPECT_EQ(groups.num_rows(), 3u);
  const std::pair<const char*, Value> keys[] = {
      {"1234567", Value(int64_t{1234567})},
      {"1234568.0", Value(1234568.0)},
      {"7.5", Value(7.5)}};
  for (const auto& [literal, key] : keys) {
    size_t hits = 0;
    for (const Row& row : groups.rows) {
      if (row[0] != key) continue;
      ++hits;
      EXPECT_EQ(row[1].AsInt(), FilterCount(literal)) << literal;
    }
    EXPECT_EQ(hits, 1u) << literal;
  }
}

TEST_F(KeyEqualityTest, DistinctMatchesEqualityFilter) {
  Table distinct = Run("SELECT DISTINCT a FROM l");
  EXPECT_EQ(distinct.num_rows(), 3u);
  for (const Value& key : {Value(int64_t{1234567}), Value(1234568.0),
                           Value(7.5)}) {
    size_t hits = 0;
    for (const Row& row : distinct.rows) hits += row[0] == key;
    EXPECT_EQ(hits, 1u) << key.ToString();
  }
}

TEST_F(EngineTest, GroupByEmitsGroupsInFirstSeenOrder) {
  std::vector<Row> rows;
  for (int64_t k : {2, 10, 2, 3, 10}) rows.push_back({Value(k)});
  ASSERT_TRUE(db_.AddTable(TableSchema("g", {{"k", ColumnType::kInt64}}),
                           std::move(rows))
                  .ok());
  auto result =
      MustExecute(MustBuild("SELECT k, count(*) AS cnt FROM g GROUP BY k"));
  ASSERT_EQ(result.table.num_rows(), 3u);
  // First-seen order: neither numeric (2, 3, 10) nor the lexicographic
  // order of rendered keys ("10" < "2" < "3").
  EXPECT_EQ(result.table.rows[0][0].AsInt(), 2);
  EXPECT_EQ(result.table.rows[1][0].AsInt(), 10);
  EXPECT_EQ(result.table.rows[2][0].AsInt(), 3);
  EXPECT_EQ(result.table.rows[0][1].AsInt(), 2);
  EXPECT_EQ(result.table.rows[1][1].AsInt(), 2);
  EXPECT_EQ(result.table.rows[2][1].AsInt(), 1);
}

}  // namespace
}  // namespace autoview
