#include <gtest/gtest.h>

#include "engine/table.h"
#include "expr_eval.h"
#include "plan/expr.h"

namespace autoview {
namespace {

Row MakeRow() {
  return {Value(int64_t{5}), Value("pen"), Value(2.5)};
}

TEST(ExprTest, ScalarEvaluation) {
  auto col = Expr::Column(0, "a", ColumnType::kInt64);
  auto lit = Expr::Literal(Value(int64_t{9}));
  Row row = MakeRow();
  EXPECT_EQ(EvalScalar(*col, row).AsInt(), 5);
  EXPECT_EQ(EvalScalar(*lit, row).AsInt(), 9);
}

TEST(ExprTest, ComparisonOperators) {
  Row row = MakeRow();
  auto a = Expr::Column(0, "a", ColumnType::kInt64);
  auto five = Expr::Literal(Value(int64_t{5}));
  auto six = Expr::Literal(Value(int64_t{6}));
  EXPECT_TRUE(EvalPredicate(*Expr::Compare(CompareOp::kEq, a, five), row));
  EXPECT_FALSE(EvalPredicate(*Expr::Compare(CompareOp::kEq, a, six), row));
  EXPECT_TRUE(EvalPredicate(*Expr::Compare(CompareOp::kNe, a, six), row));
  EXPECT_TRUE(EvalPredicate(*Expr::Compare(CompareOp::kLt, a, six), row));
  EXPECT_TRUE(EvalPredicate(*Expr::Compare(CompareOp::kLe, a, five), row));
  EXPECT_FALSE(EvalPredicate(*Expr::Compare(CompareOp::kGt, a, five), row));
  EXPECT_TRUE(EvalPredicate(*Expr::Compare(CompareOp::kGe, a, five), row));
}

TEST(ExprTest, BooleanConnectives) {
  Row row = MakeRow();
  auto t = Expr::Compare(CompareOp::kEq, Expr::Column(0, "a", ColumnType::kInt64),
                         Expr::Literal(Value(int64_t{5})));
  auto f = Expr::Compare(CompareOp::kEq, Expr::Column(0, "a", ColumnType::kInt64),
                         Expr::Literal(Value(int64_t{6})));
  EXPECT_TRUE(EvalPredicate(*Expr::And({t, t}), row));
  EXPECT_FALSE(EvalPredicate(*Expr::And({t, f}), row));
  EXPECT_TRUE(EvalPredicate(*Expr::Or({f, t}), row));
  EXPECT_FALSE(EvalPredicate(*Expr::Or({f, f}), row));
  EXPECT_TRUE(EvalPredicate(*Expr::Not(f), row));
  EXPECT_FALSE(EvalPredicate(*Expr::Not(t), row));
}

TEST(ExprTest, SingleChildAndOrCollapse) {
  auto t = Expr::Compare(CompareOp::kEq, Expr::Column(0, "a", ColumnType::kInt64),
                         Expr::Literal(Value(int64_t{5})));
  EXPECT_EQ(Expr::And({t})->kind(), ExprKind::kCompare);
  EXPECT_EQ(Expr::Or({t})->kind(), ExprKind::kCompare);
}

TEST(ExprTest, PrefixRendering) {
  auto pred = Expr::And(
      {Expr::Compare(CompareOp::kEq, Expr::Column(1, "dt", ColumnType::kString),
                     Expr::Literal(Value("1010"))),
       Expr::Compare(CompareOp::kEq,
                     Expr::Column(2, "memo_type", ColumnType::kString),
                     Expr::Literal(Value("pen")))});
  EXPECT_EQ(pred->ToPrefixString(),
            "AND(EQ(dt, '1010'), EQ(memo_type, 'pen'))");
  std::vector<std::string> tokens;
  pred->AppendPrefixTokens(&tokens);
  std::vector<std::string> expected = {"AND", "EQ",        "dt",   "'1010'",
                                       "EQ",  "memo_type", "'pen'"};
  EXPECT_EQ(tokens, expected);
}

TEST(ExprTest, HashAndEquality) {
  auto a = Expr::Compare(CompareOp::kLt, Expr::Column(0, "x", ColumnType::kInt64),
                         Expr::Literal(Value(int64_t{3})));
  auto b = Expr::Compare(CompareOp::kLt, Expr::Column(0, "x", ColumnType::kInt64),
                         Expr::Literal(Value(int64_t{3})));
  auto c = Expr::Compare(CompareOp::kLt, Expr::Column(0, "x", ColumnType::kInt64),
                         Expr::Literal(Value(int64_t{4})));
  EXPECT_EQ(a->Hash(), b->Hash());
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_NE(a->Hash(), c->Hash());
  EXPECT_FALSE(a->Equals(*c));
}

TEST(ExprTest, RemapColumns) {
  auto pred = Expr::Compare(CompareOp::kEq,
                            Expr::Column(0, "old_a", ColumnType::kInt64),
                            Expr::Column(1, "old_b", ColumnType::kInt64));
  std::vector<size_t> mapping = {2, 0};
  std::vector<std::string> names = {"n0", "n1", "n2"};
  auto remapped = pred->RemapColumns(mapping, names);
  EXPECT_EQ(remapped->children()[0]->column_index(), 2u);
  EXPECT_EQ(remapped->children()[0]->column_name(), "n2");
  EXPECT_EQ(remapped->children()[1]->column_index(), 0u);
  EXPECT_EQ(remapped->children()[1]->column_name(), "n0");
}

TEST(ExprTest, ReferencedColumnsDedupedSorted) {
  auto pred = Expr::And(
      {Expr::Compare(CompareOp::kEq, Expr::Column(3, "c", ColumnType::kInt64),
                     Expr::Column(1, "a", ColumnType::kInt64)),
       Expr::Compare(CompareOp::kLt, Expr::Column(1, "a", ColumnType::kInt64),
                     Expr::Literal(Value(int64_t{5})))});
  std::vector<size_t> expected = {1, 3};
  EXPECT_EQ(ReferencedColumns(*pred), expected);
}

TEST(ExprTest, CompareOpNames) {
  EXPECT_STREQ(CompareOpName(CompareOp::kEq), "EQ");
  EXPECT_STREQ(CompareOpName(CompareOp::kNe), "NE");
  EXPECT_STREQ(CompareOpName(CompareOp::kLt), "LT");
  EXPECT_STREQ(CompareOpName(CompareOp::kGe), "GE");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kNe), "<>");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kLe), "<=");
}

TEST(ExprTest, MixedTypeComparisonInPredicate) {
  Row row = MakeRow();
  // double column vs int literal compares numerically.
  auto c = Expr::Compare(CompareOp::kGt,
                         Expr::Column(2, "v", ColumnType::kDouble),
                         Expr::Literal(Value(int64_t{2})));
  EXPECT_TRUE(EvalPredicate(*c, row));
}

}  // namespace
}  // namespace autoview
