#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/executor.h"
#include "engine/rewriter.h"
#include "engine/view_store.h"
#include "plan/builder.h"
#include "plan/canonical.h"
#include "sql/parser.h"
#include "util/random.h"

namespace autoview {
namespace {

/// Fixture with one small table for the DISTINCT / ORDER BY / LIMIT
/// extension of the SQL fragment.
class SortLimitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<Row> rows;
    for (int i = 0; i < 100; ++i) {
      rows.push_back({Value(int64_t{i % 10}), Value(int64_t{(i * 7) % 30}),
                      Value(i % 2 == 0 ? "even" : "odd")});
    }
    ASSERT_TRUE(db_.AddTable(TableSchema("t", {{"a", ColumnType::kInt64},
                                               {"b", ColumnType::kInt64},
                                               {"tag", ColumnType::kString}}),
                             std::move(rows))
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

TEST_F(SortLimitTest, ParserHandlesTailClauses) {
  auto plan = MustBuild(
      "SELECT DISTINCT a, b FROM t WHERE b > 3 ORDER BY b DESC, a LIMIT 7");
  ASSERT_NE(plan, nullptr);
  // Limit -> Sort -> Distinct -> Project -> Filter -> Scan.
  EXPECT_EQ(plan->op(), PlanOp::kLimit);
  EXPECT_EQ(plan->limit(), 7);
  EXPECT_EQ(plan->child(0)->op(), PlanOp::kSort);
  ASSERT_EQ(plan->child(0)->sort_keys().size(), 2u);
  EXPECT_TRUE(plan->child(0)->sort_keys()[0].descending);
  EXPECT_FALSE(plan->child(0)->sort_keys()[1].descending);
  EXPECT_EQ(plan->child(0)->child(0)->op(), PlanOp::kDistinct);
}

TEST_F(SortLimitTest, OrderByUnknownColumnRejected) {
  PlanBuilder builder(&db_.catalog());
  EXPECT_FALSE(builder.BuildFromSql("SELECT a FROM t ORDER BY zzz").ok());
}

TEST_F(SortLimitTest, SortOrdersRows) {
  auto result = MustExecute(MustBuild("SELECT a, b FROM t ORDER BY b DESC"));
  ASSERT_EQ(result.table.num_rows(), 100u);
  for (size_t i = 1; i < result.table.num_rows(); ++i) {
    EXPECT_GE(result.table.rows[i - 1][1].AsInt(),
              result.table.rows[i][1].AsInt());
  }
}

TEST_F(SortLimitTest, SortIsTotalOrderDeterministic) {
  // Ties on the sort key are broken by the full row, so two executions
  // (and executions over differently-ordered inputs) agree exactly.
  auto a = MustExecute(MustBuild("SELECT a, b FROM t ORDER BY a"));
  auto b = MustExecute(MustBuild("SELECT a, b FROM t ORDER BY a"));
  ASSERT_EQ(a.table.num_rows(), b.table.num_rows());
  for (size_t i = 0; i < a.table.num_rows(); ++i) {
    EXPECT_EQ(a.table.rows[i][1].AsInt(), b.table.rows[i][1].AsInt());
  }
}

TEST_F(SortLimitTest, LimitTruncates) {
  auto result =
      MustExecute(MustBuild("SELECT a FROM t ORDER BY a LIMIT 5"));
  EXPECT_EQ(result.table.num_rows(), 5u);
  auto all = MustExecute(MustBuild("SELECT a FROM t LIMIT 1000"));
  EXPECT_EQ(all.table.num_rows(), 100u);
  auto zero = MustExecute(MustBuild("SELECT a FROM t LIMIT 0"));
  EXPECT_EQ(zero.table.num_rows(), 0u);
}

TEST_F(SortLimitTest, DistinctRemovesDuplicates) {
  auto result = MustExecute(MustBuild("SELECT DISTINCT a FROM t"));
  EXPECT_EQ(result.table.num_rows(), 10u);  // a = i % 10
  auto pairs = MustExecute(MustBuild("SELECT DISTINCT tag FROM t"));
  EXPECT_EQ(pairs.table.num_rows(), 2u);
}

TEST_F(SortLimitTest, SqlRoundTripWithTail) {
  const std::string sql =
      "SELECT DISTINCT a, b FROM t WHERE b > 3 ORDER BY b DESC LIMIT 7";
  auto p1 = MustBuild(sql);
  PlanBuilder builder(&db_.catalog());
  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok());
  auto p2 = builder.BuildFromSql(stmt.value()->ToString());
  ASSERT_TRUE(p2.ok()) << stmt.value()->ToString();
  EXPECT_TRUE(p1->Equals(*p2.value()));
}

TEST_F(SortLimitTest, CanonicalDistinguishesTailOperators) {
  auto sorted = MustBuild("SELECT a FROM t ORDER BY a");
  auto sorted_desc = MustBuild("SELECT a FROM t ORDER BY a DESC");
  auto limited = MustBuild("SELECT a FROM t ORDER BY a LIMIT 3");
  auto limited5 = MustBuild("SELECT a FROM t ORDER BY a LIMIT 5");
  auto distinct = MustBuild("SELECT DISTINCT a FROM t");
  EXPECT_FALSE(PlansEquivalent(*sorted, *sorted_desc));
  EXPECT_FALSE(PlansEquivalent(*sorted, *limited));
  EXPECT_FALSE(PlansEquivalent(*limited, *limited5));
  EXPECT_FALSE(PlansEquivalent(*sorted, *distinct));
  EXPECT_TRUE(PlansEquivalent(*limited, *MustBuild(
                                             "SELECT a FROM t ORDER BY a "
                                             "LIMIT 3")));
}

TEST_F(SortLimitTest, FeatureTokensForTailOperators) {
  auto plan = MustBuild("SELECT a, b FROM t ORDER BY b DESC LIMIT 7");
  auto seq = plan->FeatureSequence();
  // Limit -> Sort -> Project -> Scan, pre-order.
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_EQ(seq[0][0], "Limit");
  EXPECT_EQ(seq[0][1], "'7'");
  EXPECT_EQ(seq[1][0], "Sort");
  EXPECT_EQ(seq[1][1], "b");
  EXPECT_EQ(seq[1][2], "DESC");
}

TEST_F(SortLimitTest, RewritePreservesLimitedResults) {
  // A view materializes the projected+filtered subquery; the outer query
  // sorts and limits. The rewritten query must return the exact same
  // limited rows (guaranteed by the total-order sort).
  auto query = MustBuild(
      "SELECT s.a, s.b FROM (SELECT a, b FROM t WHERE b > 2) s "
      "ORDER BY s.b DESC, s.a LIMIT 9");
  ASSERT_NE(query, nullptr);
  // The view subquery is the Project subtree below Sort/Limit.
  PlanNodePtr view_plan = query;
  while (view_plan->op() != PlanOp::kProject) view_plan = view_plan->child(0);

  Executor exec(&db_);
  MaterializedViewStore store(&db_);
  auto view = store.Materialize(view_plan, exec);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  Rewriter rewriter(&db_.catalog());
  size_t subs = 0;
  auto rewritten =
      rewriter.RewriteAllIndexed(query, store.view_index(), &subs, nullptr);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(subs, 1u);

  auto before = MustExecute(query);
  auto after = MustExecute(rewritten.value());
  ASSERT_EQ(before.table.num_rows(), 9u);
  // Exact (ordered) equality here, not just bag equality.
  for (size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(before.table.rows[i][0].AsInt(),
              after.table.rows[i][0].AsInt());
    EXPECT_EQ(before.table.rows[i][1].AsInt(),
              after.table.rows[i][1].AsInt());
  }
}

TEST_F(SortLimitTest, CostChargesForSortAndDistinct) {
  auto plain = MustExecute(MustBuild("SELECT a FROM t"));
  auto sorted = MustExecute(MustBuild("SELECT a FROM t ORDER BY a"));
  auto distinct = MustExecute(MustBuild("SELECT DISTINCT a FROM t"));
  EXPECT_GT(sorted.cost.cpu_units, plain.cost.cpu_units);
  EXPECT_GT(distinct.cost.cpu_units, plain.cost.cpu_units);
}

TEST_F(SortLimitTest, PlanFactoriesValidate) {
  auto scan = PlanNode::MakeScan(db_.catalog(), "t").value();
  EXPECT_FALSE(PlanNode::MakeSort(scan, {}).ok());
  EXPECT_FALSE(PlanNode::MakeSort(scan, {{99, false}}).ok());
  EXPECT_FALSE(PlanNode::MakeLimit(scan, -2).ok());
  EXPECT_TRUE(PlanNode::MakeLimit(scan, 0).ok());
  EXPECT_TRUE(PlanNode::MakeDistinct(scan).ok());
  EXPECT_FALSE(PlanNode::MakeDistinct(nullptr).ok());
}

}  // namespace
}  // namespace autoview
