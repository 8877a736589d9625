#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "generators.h"
#include "plan/builder.h"
#include "plan/canonical.h"
#include "plan/plan.h"
#include "workload/generator.h"

namespace autoview {
namespace {

/// Test fixture with the paper's Fig. 2 schema.
class PlanTest : public ::testing::Test {
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

TEST_F(PlanTest, ScanOutputsTableSchema) {
  auto plan = MustBuild("SELECT * FROM user_memo");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->op(), PlanOp::kTableScan);
  EXPECT_EQ(plan->num_output_columns(), 4u);
  EXPECT_EQ(plan->output()[0].name, "user_id");
}

TEST_F(PlanTest, UnknownTableFails) {
  PlanBuilder builder(&catalog_);
  auto r = builder.BuildFromSql("SELECT * FROM nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(PlanTest, UnknownColumnFails) {
  PlanBuilder builder(&catalog_);
  EXPECT_FALSE(builder.BuildFromSql("SELECT nope FROM user_memo").ok());
}

TEST_F(PlanTest, FilterKeepsSchema) {
  auto plan = MustBuild("SELECT * FROM user_memo WHERE dt = '1010'");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->op(), PlanOp::kFilter);
  EXPECT_EQ(plan->num_output_columns(), 4u);
  EXPECT_EQ(plan->child(0)->op(), PlanOp::kTableScan);
}

TEST_F(PlanTest, ProjectRenames) {
  auto plan = MustBuild("SELECT user_id AS uid, memo FROM user_memo");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->op(), PlanOp::kProject);
  EXPECT_EQ(plan->output()[0].name, "uid");
  EXPECT_EQ(plan->output()[1].name, "memo");
}

TEST_F(PlanTest, Fig2PlanShape) {
  auto plan = MustBuild(kFig2Sql);
  ASSERT_NE(plan, nullptr);
  // Aggregate -> Join -> two Project -> Filter -> Scan chains.
  EXPECT_EQ(plan->op(), PlanOp::kAggregate);
  const auto& join = plan->child(0);
  EXPECT_EQ(join->op(), PlanOp::kJoin);
  EXPECT_EQ(join->child(0)->op(), PlanOp::kProject);
  EXPECT_EQ(join->child(1)->op(), PlanOp::kProject);
  EXPECT_EQ(join->child(0)->child(0)->op(), PlanOp::kFilter);
  EXPECT_EQ(join->child(0)->child(0)->child(0)->op(), PlanOp::kTableScan);
  EXPECT_EQ(plan->NumOperators(), 8u);
  EXPECT_EQ(plan->Height(), 5u);
  // Output: group key + count.
  ASSERT_EQ(plan->num_output_columns(), 2u);
  EXPECT_EQ(plan->output()[1].name, "cnt");
  EXPECT_EQ(plan->output()[1].type, ColumnType::kInt64);
}

TEST_F(PlanTest, JoinDisambiguatesDuplicateNames) {
  auto plan = MustBuild(
      "SELECT m.user_id FROM user_memo m INNER JOIN user_action a "
      "ON m.user_id = a.user_id");
  ASSERT_NE(plan, nullptr);
  const auto& join = plan->child(0);
  ASSERT_EQ(join->op(), PlanOp::kJoin);
  ASSERT_EQ(join->num_output_columns(), 8u);
  EXPECT_EQ(join->output()[0].name, "user_id");
  EXPECT_EQ(join->output()[4].name, "user_id_2");
  EXPECT_EQ(join->output()[7].name, "dt_2");
}

TEST_F(PlanTest, AmbiguousUnqualifiedColumnFails) {
  PlanBuilder builder(&catalog_);
  auto r = builder.BuildFromSql(
      "SELECT user_id FROM user_memo m INNER JOIN user_action a "
      "ON m.user_id = a.user_id");
  EXPECT_FALSE(r.ok());
}

TEST_F(PlanTest, SelectedColumnMustBeGrouped) {
  PlanBuilder builder(&catalog_);
  EXPECT_FALSE(
      builder.BuildFromSql("SELECT memo, COUNT(*) FROM user_memo GROUP BY dt")
          .ok());
}

TEST_F(PlanTest, FeatureSequenceIsPreOrder) {
  auto plan = MustBuild(kFig2Sql);
  ASSERT_NE(plan, nullptr);
  auto seq = plan->FeatureSequence();
  ASSERT_EQ(seq.size(), 8u);
  EXPECT_EQ(seq[0][0], "Aggregate");
  EXPECT_EQ(seq[1][0], "Join");
  EXPECT_EQ(seq[2][0], "Project");
  EXPECT_EQ(seq[3][0], "Filter");
  EXPECT_EQ(seq[4][0], "Scan");
  EXPECT_EQ(seq[4][1], "user_memo");
  EXPECT_EQ(seq[7][1], "user_action");
}

TEST_F(PlanTest, FilterFeatureTokensArePrefixNotation) {
  auto plan = MustBuild(
      "SELECT * FROM user_memo WHERE dt = '1010' AND memo_type = 'pen'");
  ASSERT_NE(plan, nullptr);
  auto tokens = plan->FeatureTokens();
  // [Filter, AND, EQ, dt, '1010', EQ, memo_type, 'pen'] per Fig. 4.
  std::vector<std::string> expected = {"Filter",      "AND",    "EQ",
                                       "dt",          "'1010'", "EQ",
                                       "memo_type",   "'pen'"};
  EXPECT_EQ(tokens, expected);
}

TEST_F(PlanTest, ToStringMatchesFig2Style) {
  auto plan = MustBuild(kFig2Sql);
  ASSERT_NE(plan, nullptr);
  std::string s = plan->ToString();
  EXPECT_NE(s.find("Aggregate(group=[{user_id}], cnt=[COUNT()])"),
            std::string::npos)
      << s;
  EXPECT_NE(s.find("Join(condition=[EQ(user_id, user_id_2)], "
                   "joinType=[inner])"),
            std::string::npos)
      << s;
  EXPECT_NE(s.find("TableScan(table=[[user_memo]])"), std::string::npos) << s;
}

TEST_F(PlanTest, HashingStableAndDiscriminating) {
  auto p1 = MustBuild(kFig2Sql);
  auto p2 = MustBuild(kFig2Sql);
  auto p3 = MustBuild("SELECT * FROM user_memo WHERE dt = '1010'");
  ASSERT_TRUE(p1 && p2 && p3);
  EXPECT_EQ(p1->Hash(), p2->Hash());
  EXPECT_TRUE(p1->Equals(*p2));
  EXPECT_NE(p1->Hash(), p3->Hash());
  EXPECT_FALSE(p1->Equals(*p3));
}

TEST_F(PlanTest, OverlapMatchesPaperExample) {
  auto q = MustBuild(kFig2Sql);
  ASSERT_NE(q, nullptr);
  // s1 = left Project subtree, s2 = right Project subtree, s3 = Join.
  auto s3 = q->child(0);
  auto s1 = s3->child(0);
  auto s2 = s3->child(1);
  EXPECT_TRUE(PlansOverlap(*s3, *s1));
  EXPECT_TRUE(PlansOverlap(*s3, *s2));
  EXPECT_FALSE(PlansOverlap(*s1, *s2));
  EXPECT_TRUE(PlansOverlap(*q, *s3));
}

TEST_F(PlanTest, CanonicalIgnoresConjunctOrder) {
  auto a = MustBuild(
      "SELECT * FROM user_memo WHERE dt = '1010' AND memo_type = 'pen'");
  auto b = MustBuild(
      "SELECT * FROM user_memo WHERE memo_type = 'pen' AND dt = '1010'");
  ASSERT_TRUE(a && b);
  EXPECT_FALSE(a->Equals(*b));  // structurally different...
  EXPECT_TRUE(PlansEquivalent(*a, *b));  // ...semantically equal
}

TEST_F(PlanTest, CanonicalIgnoresComparisonOrientation) {
  auto a = MustBuild("SELECT * FROM user_action WHERE type = 1");
  auto b = MustBuild("SELECT * FROM user_action WHERE 1 = type");
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(PlansEquivalent(*a, *b));
  auto c = MustBuild("SELECT * FROM user_action WHERE type < 5");
  auto d = MustBuild("SELECT * FROM user_action WHERE 5 > type");
  ASSERT_TRUE(c && d);
  EXPECT_TRUE(PlansEquivalent(*c, *d));
  EXPECT_FALSE(PlansEquivalent(*a, *c));
}

TEST_F(PlanTest, CanonicalIgnoresJoinOrder) {
  auto a = MustBuild(
      "SELECT m.user_id FROM user_memo m INNER JOIN user_action a "
      "ON m.user_id = a.user_id");
  auto b = MustBuild(
      "SELECT a.user_id FROM user_action a INNER JOIN user_memo m "
      "ON m.user_id = a.user_id");
  ASSERT_TRUE(a && b);
  // Compare the join subtrees (projection names differ by position).
  EXPECT_TRUE(PlansEquivalent(*a->child(0), *b->child(0)));
}

TEST_F(PlanTest, CanonicalDistinguishesDifferentLiterals) {
  auto a = MustBuild("SELECT * FROM user_action WHERE type = 1");
  auto b = MustBuild("SELECT * FROM user_action WHERE type = 2");
  ASSERT_TRUE(a && b);
  EXPECT_FALSE(PlansEquivalent(*a, *b));
}

TEST_F(PlanTest, CanonicalKeysRenderFloatLiteralsExactly) {
  // printf's %g keeps six significant digits, so each pair would render
  // as one literal and two different queries would share a key.
  const std::pair<const char*, const char*> pairs[] = {
      {"1.0000001", "1.0000002"}, {"123456789.5", "123456789.0"}};
  const std::string prefix = "SELECT * FROM user_action WHERE type < ";
  for (const auto& [x, y] : pairs) {
    auto a = MustBuild(prefix + x);
    auto b = MustBuild(prefix + y);
    ASSERT_TRUE(a && b);
    EXPECT_NE(CanonicalKey(*a), CanonicalKey(*b)) << x << " vs " << y;
    EXPECT_FALSE(PlansEquivalent(*a, *b));
  }
  // Equal values keep one key: 3 and 3.0 compare equal.
  auto int_literal = MustBuild("SELECT * FROM user_action WHERE type = 3");
  auto double_literal =
      MustBuild("SELECT * FROM user_action WHERE type = 3.0");
  ASSERT_TRUE(int_literal && double_literal);
  EXPECT_EQ(CanonicalKey(*int_literal), CanonicalKey(*double_literal));
}

TEST_F(PlanTest, SubtreeCanonicalKeysMatchPerNodeCanonicalKey) {
  // The bottom-up walk must give every node of Subtrees() (pre-order,
  // repeated subtrees included) exactly the key CanonicalKey renders
  // for that node on its own.
  const std::vector<std::string> tables = {"user_memo", "user_action"};
  Rng rng(7);
  std::set<PlanOp> ops_seen;
  size_t repeated_keys = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const PlanNodePtr plan = testing::RandomPlan(catalog_, tables, 7, rng);
    const std::vector<PlanNodePtr> nodes = plan->Subtrees();
    const std::vector<std::string> keys = SubtreeCanonicalKeys(*plan);
    ASSERT_EQ(keys.size(), nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_EQ(keys[i], CanonicalKey(*nodes[i])) << "node " << i;
      ops_seen.insert(nodes[i]->op());
    }
    repeated_keys +=
        keys.size() - std::set<std::string>(keys.begin(), keys.end()).size();
  }
  EXPECT_EQ(ops_seen.size(), 8u);  // every PlanOp kind was generated
  EXPECT_GT(repeated_keys, 0u);
}

/// Test-local recursive walks: the definitions the factory-stored
/// NumOperators() and Height() must agree with.
size_t CountOperators(const PlanNode& node) {
  size_t n = 1;
  for (const PlanNodePtr& child : node.children()) n += CountOperators(*child);
  return n;
}

size_t MeasureHeight(const PlanNode& node) {
  size_t h = 0;
  for (const PlanNodePtr& child : node.children()) {
    h = std::max(h, MeasureHeight(*child));
  }
  return h + 1;
}

/// Checks the stored counts on every subtree of `root`; returns how many
/// subtrees it checked.
size_t ExpectStoredShapeMatchesWalk(const PlanNode& root) {
  const std::vector<PlanNodePtr> nodes = root.Subtrees();
  for (const PlanNodePtr& node : nodes) {
    EXPECT_EQ(node->NumOperators(), CountOperators(*node))
        << node->OperatorString();
    EXPECT_EQ(node->Height(), MeasureHeight(*node)) << node->OperatorString();
  }
  return nodes.size();
}

TEST_F(PlanTest, StoredOperatorCountAndHeightMatchRandomPlans) {
  const std::vector<std::string> tables = {"user_memo", "user_action"};
  Rng rng(11);
  size_t checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const PlanNodePtr plan = testing::RandomPlan(catalog_, tables, 7, rng);
    checked += ExpectStoredShapeMatchesWalk(*plan);
  }
  EXPECT_GT(checked, 1000u);
}

TEST(PlanShapeTest, StoredOperatorCountAndHeightMatchWk1Plans) {
  const GeneratedWorkload wk = GenerateCloudWorkload(Wk1Spec());
  PlanBuilder builder(&wk.db->catalog());
  size_t checked = 0;
  for (const std::string& sql : wk.sql) {
    Result<PlanNodePtr> plan = builder.BuildFromSql(sql);
    ASSERT_TRUE(plan.ok()) << sql << "\n" << plan.status().ToString();
    checked += ExpectStoredShapeMatchesWalk(*plan.value());
  }
  EXPECT_GT(checked, wk.sql.size() * 4);
}

TEST_F(PlanTest, PassThroughNodesShareTheirChildsColumns) {
  auto plan = MustBuild(
      "SELECT DISTINCT user_id, memo FROM user_memo WHERE dt = '1' "
      "ORDER BY user_id LIMIT 3");
  ASSERT_NE(plan, nullptr);
  // Limit -> Sort -> Distinct -> Project -> Filter -> Scan.
  const PlanNode& limit = *plan;
  const PlanNode& sort = *limit.child(0);
  const PlanNode& distinct = *sort.child(0);
  const PlanNode& project = *distinct.child(0);
  const PlanNode& filter = *project.child(0);
  const PlanNode& scan = *filter.child(0);
  ASSERT_EQ(scan.op(), PlanOp::kTableScan);
  EXPECT_EQ(&limit.output(), &project.output());
  EXPECT_EQ(&sort.output(), &project.output());
  EXPECT_EQ(&distinct.output(), &project.output());
  EXPECT_EQ(&filter.output(), &scan.output());
  // A scan shares its catalog table's column list.
  EXPECT_EQ(&scan.output(), &catalog_.GetTable("user_memo").value()->columns());
}

TEST(PlanColumnsTest, ScanColumnsOutliveTheTable) {
  // The rewriter builds scans of views it has not pinned; a view evicted
  // meanwhile must leave the scan's columns readable.
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddTable(TableSchema("__mv_1", {{"k", ColumnType::kInt64},
                                                   {"v", ColumnType::kString}}))
                  .ok());
  const PlanNodePtr scan = PlanNode::MakeScan(catalog, "__mv_1").value();
  ExprPtr predicate =
      Expr::Compare(CompareOp::kEq, Expr::Column(0, "k", ColumnType::kInt64),
                    Expr::Literal(Value(int64_t{1})));
  const PlanNodePtr filter =
      PlanNode::MakeFilter(scan, std::move(predicate)).value();
  ASSERT_TRUE(catalog.RemoveTable("__mv_1").ok());
  const std::vector<OutputColumn> expected = {{"k", ColumnType::kInt64},
                                              {"v", ColumnType::kString}};
  EXPECT_EQ(scan->output(), expected);
  EXPECT_EQ(filter->output(), expected);
}

TEST_F(PlanTest, ResolvedNamesFollowJoinRenaming) {
  // Name resolution predicts MakeJoin's renaming, including duplicates
  // inside one derived table: b.x is the join's fourth column, x_3.
  auto plan = MustBuild(
      "SELECT a.x, b.x FROM (SELECT user_id AS x, dt AS x FROM user_memo) a "
      "INNER JOIN (SELECT user_id, dt AS x FROM user_action) b "
      "ON a.x = b.user_id");
  ASSERT_NE(plan, nullptr);
  const PlanNode& join = *plan->child(0);
  ASSERT_EQ(join.op(), PlanOp::kJoin);
  std::vector<std::string> names;
  for (const OutputColumn& col : join.output()) names.push_back(col.name);
  EXPECT_EQ(names, (std::vector<std::string>{"x", "x_2", "user_id", "x_3"}));
  EXPECT_EQ(join.join_condition()->ToPrefixString(), "EQ(x, user_id)");
  EXPECT_EQ(plan->OperatorString(), "Project(x=[x], x_3=[x_3])");
}

TEST_F(PlanTest, ScannedTables) {
  auto q = MustBuild(kFig2Sql);
  ASSERT_NE(q, nullptr);
  std::vector<std::string> expected = {"user_action", "user_memo"};
  EXPECT_EQ(q->ScannedTables(), expected);
}

}  // namespace
}  // namespace autoview
