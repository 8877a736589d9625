#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/value.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "plan/builder.h"
#include "util/random.h"

namespace autoview {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  Value i(int64_t{42});
  Value d(3.5);
  Value s("abc");
  EXPECT_TRUE(i.is_int());
  EXPECT_TRUE(d.is_double());
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(i.type(), ColumnType::kInt64);
  EXPECT_EQ(d.type(), ColumnType::kDouble);
  EXPECT_EQ(s.type(), ColumnType::kString);
  EXPECT_EQ(i.AsInt(), 42);
  EXPECT_EQ(i.AsDouble(), 42.0);
  EXPECT_EQ(s.AsString(), "abc");
}

TEST(ValueTest, DefaultIsIntZero) {
  Value v;
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.AsInt(), 0);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(int64_t{3}).Compare(Value(3.0)), 0);
  EXPECT_LT(Value(int64_t{2}).Compare(Value(2.5)), 0);
  EXPECT_GT(Value(4.5).Compare(Value(int64_t{4})), 0);
}

// 2^53 and 2^53 + 1 round to the same double, so comparing two ints
// through AsDouble() would call them equal.
constexpr int64_t kTwo53 = int64_t{1} << 53;

TEST(ValueTest, IntCompareIsExactBeyondDoublePrecision) {
  const Value a(kTwo53);
  const Value b(kTwo53 + 1);
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_GT(b.Compare(a), 0);
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a < b);
  EXPECT_EQ(b.Compare(Value(kTwo53 + 1)), 0);
  EXPECT_EQ(b.Hash(), Value(kTwo53 + 1).Hash());
}

/// Join and group-by keyed on 2^53 vs 2^53 + 1 agree with the `=` filter.
class BigIntKeyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<Row> l_rows = {{Value(int64_t{1}), Value(kTwo53)},
                               {Value(int64_t{2}), Value(kTwo53 + 1)},
                               {Value(int64_t{3}), Value(kTwo53)}};
    std::vector<Row> r_rows = {{Value(int64_t{10}), Value(kTwo53 + 1)},
                               {Value(int64_t{11}), Value(kTwo53)}};
    ASSERT_TRUE(db_.AddTable(TableSchema("l", {{"id", ColumnType::kInt64},
                                               {"k", ColumnType::kInt64}}),
                             std::move(l_rows))
                    .ok());
    ASSERT_TRUE(db_.AddTable(TableSchema("r", {{"id", ColumnType::kInt64},
                                               {"k", ColumnType::kInt64}}),
                             std::move(r_rows))
                    .ok());
    ASSERT_TRUE(db_.ComputeAllStats().ok());
  }

  Table Run(const std::string& sql) {
    PlanBuilder builder(&db_.catalog());
    auto plan = builder.BuildFromSql(sql);
    EXPECT_TRUE(plan.ok()) << sql << "\n" << plan.status().ToString();
    if (!plan.ok()) return Table{};
    auto result = Executor(&db_).Execute(*plan.value());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result).value().table : Table{};
  }

  Database db_;
};

TEST_F(BigIntKeyTest, JoinKeepsAdjacentBigIntsApart) {
  Table joined =
      Run("SELECT l.id AS lid, r.id AS rid FROM l INNER JOIN r ON l.k = r.k");
  ASSERT_EQ(joined.num_rows(), 3u);
  for (const Row& row : joined.rows) {
    const int64_t lid = row[0].AsInt();
    const int64_t rid = row[1].AsInt();
    EXPECT_EQ(rid, lid == 2 ? 10 : 11) << lid;
  }
  // The `=` filter agrees: exactly one left row holds 2^53 + 1.
  Table filtered = Run("SELECT id FROM l WHERE k = 9007199254740993");
  ASSERT_EQ(filtered.num_rows(), 1u);
  EXPECT_EQ(filtered.rows[0][0].AsInt(), 2);
}

TEST_F(BigIntKeyTest, GroupByKeepsAdjacentBigIntsApart) {
  Table groups = Run("SELECT k, count(*) AS cnt FROM l GROUP BY k");
  ASSERT_EQ(groups.num_rows(), 2u);
  EXPECT_EQ(groups.rows[0][0].AsInt(), kTwo53);
  EXPECT_EQ(groups.rows[0][1].AsInt(), 2);
  EXPECT_EQ(groups.rows[1][0].AsInt(), kTwo53 + 1);
  EXPECT_EQ(groups.rows[1][1].AsInt(), 1);
  Table filtered =
      Run("SELECT count(*) AS cnt FROM l WHERE k = 9007199254740992");
  ASSERT_EQ(filtered.num_rows(), 1u);
  EXPECT_EQ(filtered.rows[0][0].AsInt(), 2);
}

TEST(ValueTest, StringsOrderAfterNumbers) {
  EXPECT_LT(Value(int64_t{99}).Compare(Value("a")), 0);
  EXPECT_GT(Value("a").Compare(Value(1.0)), 0);
  EXPECT_LT(Value("apple").Compare(Value("banana")), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{3}).Hash(), Value(3.0).Hash());
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
  EXPECT_NE(Value("x").Hash(), Value("y").Hash());
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value("hi").ToString(), "'hi'");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
}

TEST(ValueTest, ByteSize) {
  EXPECT_EQ(Value(int64_t{1}).ByteSize(), 8u);
  EXPECT_EQ(Value(1.0).ByteSize(), 8u);
  EXPECT_GT(Value("hello").ByteSize(), 5u);
}

TEST(CatalogTest, AddAndLookup) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddTable(TableSchema("t", {{"a", ColumnType::kInt64},
                                              {"b", ColumnType::kString}}))
                  .ok());
  EXPECT_TRUE(catalog.HasTable("t"));
  EXPECT_FALSE(catalog.HasTable("u"));
  auto schema = catalog.GetTable("t");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema.value()->num_columns(), 2u);
  EXPECT_EQ(schema.value()->FindColumn("b"), 1u);
  EXPECT_FALSE(schema.value()->FindColumn("zzz").has_value());
  EXPECT_EQ(catalog.num_tables(), 1u);
}

TEST(CatalogTest, DuplicateRejected) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(TableSchema("t", {})).ok());
  EXPECT_EQ(catalog.AddTable(TableSchema("t", {})).code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, StatsLifecycle) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.AddTable(TableSchema("t", {{"a", ColumnType::kInt64}})).ok());
  // Default stats are zeroed.
  EXPECT_EQ(catalog.GetStats("t").row_count, 0u);
  TableStats stats;
  stats.row_count = 10;
  stats.byte_size = 80;
  ASSERT_TRUE(catalog.SetStats("t", stats).ok());
  EXPECT_EQ(catalog.GetStats("t").row_count, 10u);
  // Stats for unknown table rejected.
  EXPECT_EQ(catalog.SetStats("nope", stats).code(), StatusCode::kNotFound);
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(TableSchema("zebra", {})).ok());
  ASSERT_TRUE(catalog.AddTable(TableSchema("apple", {})).ok());
  std::vector<std::string> expected = {"apple", "zebra"};
  EXPECT_EQ(catalog.TableNames(), expected);
}

TEST(CatalogTest, TableNamesSortedAfterShuffledInserts) {
  std::vector<std::string> names;
  for (int i = 0; i < 500; ++i) {
    std::string name = "t";
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  std::vector<std::string> shuffled = names;
  Rng rng(5);
  rng.Shuffle(&shuffled);
  Catalog catalog;
  for (const std::string& name : shuffled) {
    ASSERT_TRUE(catalog.AddTable(TableSchema(name, {})).ok());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(catalog.TableNames(), names);
  // A removal keeps the rest sorted.
  ASSERT_TRUE(catalog.RemoveTable("t250").ok());
  names.erase(std::find(names.begin(), names.end(), "t250"));
  EXPECT_EQ(catalog.TableNames(), names);
}

TEST(CatalogTest, ReferencesStayValidAcrossManyInserts) {
  // GetTable()/GetStats() hand out references into the catalog's maps;
  // growing the maps (rehashing) must not move them.
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddTable(TableSchema("base", {{"a", ColumnType::kInt64},
                                                 {"b", ColumnType::kString}}))
                  .ok());
  TableStats stats;
  stats.row_count = 42;
  stats.columns.resize(2);
  stats.columns[1].distinct_count = 7.0;
  ASSERT_TRUE(catalog.SetStats("base", stats).ok());
  const TableSchema* schema = catalog.GetTable("base").value();
  const TableStats& base_stats = catalog.GetStats("base");
  const std::vector<ColumnSchema>* columns = &schema->columns();
  for (int i = 0; i < 1000; ++i) {
    std::string name = "v";
    name += std::to_string(i);
    ASSERT_TRUE(
        catalog.AddTable(TableSchema(name, {{"x", ColumnType::kDouble}})).ok());
    TableStats s;
    s.row_count = static_cast<uint64_t>(i);
    ASSERT_TRUE(catalog.SetStats(name, s).ok());
  }
  EXPECT_EQ(catalog.num_tables(), 1001u);
  EXPECT_EQ(catalog.GetTable("base").value(), schema);
  EXPECT_EQ(&catalog.GetStats("base"), &base_stats);
  EXPECT_EQ(schema->name(), "base");
  EXPECT_EQ(schema->FindColumn("b"), 1u);
  EXPECT_EQ(&schema->columns(), columns);
  EXPECT_EQ(base_stats.row_count, 42u);
  EXPECT_EQ(base_stats.columns[1].distinct_count, 7.0);
  EXPECT_EQ(catalog.GetStats("v999").row_count, 999u);
}

TEST(CatalogTest, LookupsTakeStringViews) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.AddTable(TableSchema("orders", {{"id", ColumnType::kInt64}}))
          .ok());
  const std::string sql_text = "FROM orders WHERE";
  const std::string_view name = std::string_view(sql_text).substr(5, 6);
  EXPECT_TRUE(catalog.HasTable(name));
  ASSERT_TRUE(catalog.GetTable(name).ok());
  EXPECT_EQ(catalog.GetStats(name).row_count, 0u);
  EXPECT_FALSE(catalog.HasTable(std::string_view(sql_text).substr(5, 5)));
  EXPECT_EQ(catalog.GetColumns("nope").status().code(),
            StatusCode::kNotFound);
}

TEST(CatalogTest, ColumnsOutliveRemoveTable) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.AddTable(TableSchema("view", {{"k", ColumnType::kInt64}})).ok());
  const SharedColumns columns = catalog.GetColumns("view").value();
  ASSERT_TRUE(catalog.RemoveTable("view").ok());
  ASSERT_EQ(columns->size(), 1u);
  EXPECT_EQ((*columns)[0].name, "k");
}

TEST(HistogramTest, SelectivityEdgeCases) {
  Histogram hist;
  hist.lo = 0;
  hist.hi = 100;
  hist.bucket_counts = {25, 25, 25, 25};
  // Out-of-range equality is zero.
  EXPECT_EQ(hist.EqualitySelectivity(-5, 10), 0.0);
  EXPECT_EQ(hist.EqualitySelectivity(200, 10), 0.0);
  // Range selectivity clamps.
  EXPECT_EQ(hist.LessThanSelectivity(-1), 0.0);
  EXPECT_EQ(hist.LessThanSelectivity(1000), 1.0);
  EXPECT_NEAR(hist.LessThanSelectivity(50), 0.5, 1e-9);
  EXPECT_NEAR(hist.LessThanSelectivity(25), 0.25, 1e-9);
  // Uniform equality with 10 distinct values spread over 4 buckets.
  EXPECT_NEAR(hist.EqualitySelectivity(10, 10), 0.25 / 2.5, 1e-9);
  // Empty histogram.
  Histogram empty;
  EXPECT_EQ(empty.EqualitySelectivity(1, 1), 0.0);
  EXPECT_EQ(empty.LessThanSelectivity(1), 0.0);
}

TEST(ColumnTypeTest, NamesMatchPaperSpelling) {
  // The schema-encoding feature uses these exact spellings (Fig. 7b).
  EXPECT_STREQ(ColumnTypeName(ColumnType::kInt64), "Int");
  EXPECT_STREQ(ColumnTypeName(ColumnType::kString), "String");
  EXPECT_STREQ(ColumnTypeName(ColumnType::kDouble), "Double");
}

}  // namespace
}  // namespace autoview
