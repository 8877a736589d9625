#include <gtest/gtest.h>

#include "engine/table.h"
#include "plan/builder.h"

namespace autoview {
namespace {

TEST(TableTest, ByteSizeCountsCells) {
  const Table t = Table::FromRows(
      {{"a", ColumnType::kInt64}, {"s", ColumnType::kString}},
      {{Value(int64_t{1}), Value("abc")}, {Value(int64_t{2}), Value("de")}});
  // ints: 8 each; strings: size + sizeof(size_t).
  EXPECT_EQ(t.ByteSize(),
            2 * 8 + (3 + sizeof(size_t)) + (2 + sizeof(size_t)));
}

TEST(TableTest, ToStringTruncates) {
  std::vector<Row> rows;
  for (int i = 0; i < 30; ++i) rows.push_back({Value(int64_t{i})});
  const Table t = Table::FromRows({{"a", ColumnType::kInt64}}, rows);
  std::string s = t.ToString(5);
  EXPECT_NE(s.find("a:Int"), std::string::npos);
  EXPECT_NE(s.find("(30 rows total)"), std::string::npos);
}

TEST(TableTest, EqualityRequiresSameColumns) {
  Table a, b;
  a.columns = {{"x", ColumnType::kInt64}};
  b.columns = {{"y", ColumnType::kInt64}};
  EXPECT_FALSE(TablesEqualUnordered(a, b));
  b.columns = a.columns;
  EXPECT_TRUE(TablesEqualUnordered(a, b));
}

class PrintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .AddTable(TableSchema("t", {{"a", ColumnType::kInt64},
                                                {"b", ColumnType::kString}}))
                    .ok());
  }
  PlanNodePtr Build(const std::string& sql) {
    PlanBuilder builder(&catalog_);
    auto r = builder.BuildFromSql(sql);
    EXPECT_TRUE(r.ok()) << sql;
    return r.value();
  }
  Catalog catalog_;
};

TEST_F(PrintTest, OperatorStringsAreStable) {
  EXPECT_EQ(Build("SELECT * FROM t")->OperatorString(),
            "TableScan(table=[[t]])");
  EXPECT_EQ(Build("SELECT * FROM t WHERE a = 1")->OperatorString(),
            "Filter(condition=[EQ(a, 1)])");
  EXPECT_EQ(Build("SELECT a AS x FROM t")->OperatorString(),
            "Project(x=[a])");
  EXPECT_EQ(Build("SELECT a, COUNT(*) AS c FROM t GROUP BY a")
                ->OperatorString(),
            "Aggregate(group=[{a}], c=[COUNT()])");
  EXPECT_EQ(Build("SELECT a FROM t ORDER BY a DESC")->OperatorString(),
            "Sort(keys=[a DESC])");
  EXPECT_EQ(Build("SELECT a FROM t LIMIT 4")->OperatorString(),
            "Limit(n=[4])");
  EXPECT_EQ(Build("SELECT DISTINCT a FROM t")->OperatorString(),
            "Distinct()");
}

TEST_F(PrintTest, TreeIndentation) {
  std::string s = Build("SELECT a FROM t WHERE a > 2")->ToString();
  // Project at depth 0, Filter at 2 spaces, Scan at 4.
  EXPECT_NE(s.find("Project(a=[a])\n  Filter"), std::string::npos);
  EXPECT_NE(s.find("  Filter(condition=[GT(a, 2)])\n    TableScan"),
            std::string::npos);
}

TEST_F(PrintTest, NumOperatorsAndHeight) {
  auto plan = Build("SELECT a FROM t WHERE a > 2 ORDER BY a LIMIT 3");
  // Limit, Sort, Project, Filter, Scan.
  EXPECT_EQ(plan->NumOperators(), 5u);
  EXPECT_EQ(plan->Height(), 5u);
}

}  // namespace
}  // namespace autoview
