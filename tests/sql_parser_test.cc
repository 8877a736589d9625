#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sql/parser.h"
#include "sql/token.h"

namespace autoview {
namespace {

// The running example of the paper's Fig. 2.
constexpr const char* kFig2Sql = R"(
select t1.user_id, count(*) as cnt
from (
  select user_id, memo from user_memo
  where dt = '1010' and memo_type = 'pen') t1
inner join (
  select user_id, action from user_action
  where type = 1 and dt = '1010') t2
on t1.user_id = t2.user_id
group by t1.user_id;
)";

TEST(TokenizerTest, BasicTokens) {
  auto r = Tokenize("SELECT a, b FROM t WHERE x = 'hi' AND y >= 3.5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& tokens = r.value();
  EXPECT_EQ(tokens[0].type, TokenType::kKeyword);
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[1].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens.back().type, TokenType::kEnd);
}

TEST(TokenizerTest, KeywordsCaseInsensitive) {
  auto r = Tokenize("select From wHeRe");
  ASSERT_TRUE(r.ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.value()[i].type, TokenType::kKeyword);
  }
  EXPECT_EQ(r.value()[0].text, "SELECT");
  EXPECT_EQ(r.value()[2].text, "WHERE");
}

TEST(TokenizerTest, StringLiteralStripsQuotes) {
  auto r = Tokenize("'pen'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0].type, TokenType::kStringLiteral);
  EXPECT_EQ(r.value()[0].text, "pen");
}

TEST(TokenizerTest, UnterminatedString) {
  auto r = Tokenize("'abc");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(TokenizerTest, MultiCharOperators) {
  auto r = Tokenize("a <= b >= c <> d != e");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[1].text, "<=");
  EXPECT_EQ(r.value()[3].text, ">=");
  EXPECT_EQ(r.value()[5].text, "<>");
  EXPECT_EQ(r.value()[7].text, "<>");  // != normalized
}

TEST(TokenizerTest, RejectsGarbage) {
  EXPECT_FALSE(Tokenize("a @ b").ok());
}

TEST(TokenizerTest, NonAsciiByteInIdentifierRejectedAtItsOffset) {
  // Character classes are ASCII: the first byte of UTF-8 "é" ends the
  // identifier "ab" and is itself no token.
  const std::string sql = "SELECT ab\xC3\xA9 FROM t";
  const std::string expected = "unexpected character '\xC3' at offset 9";
  auto tokens = Tokenize(sql);
  ASSERT_FALSE(tokens.ok());
  EXPECT_EQ(tokens.status().code(), StatusCode::kParseError);
  EXPECT_EQ(tokens.status().message(), expected);
  auto stmt = ParseSelect(sql);
  ASSERT_FALSE(stmt.ok());
  EXPECT_EQ(stmt.status().code(), StatusCode::kParseError);
  EXPECT_EQ(stmt.status().message(), expected);
  // A non-ASCII byte cannot start an identifier either.
  auto leading = Tokenize("\xC3\xA9");
  ASSERT_FALSE(leading.ok());
  EXPECT_EQ(leading.status().message(),
            "unexpected character '\xC3' at offset 0");
  // Inside a string literal any byte is fine.
  auto literal = Tokenize("'caf\xC3\xA9'");
  ASSERT_TRUE(literal.ok());
  EXPECT_EQ(literal.value()[0].text, "caf\xC3\xA9");
}

TEST(TokenizerTest, MixedCaseKeywordsNormalise) {
  auto r = Tokenize("SeLeCt DiStInCt a FrOm t gRoUp bY a OrDeR By a dEsC");
  ASSERT_TRUE(r.ok());
  const std::vector<Token>& t = r.value();
  const std::vector<std::pair<size_t, Keyword>> keywords = {
      {0, Keyword::kSelect}, {1, Keyword::kDistinct}, {3, Keyword::kFrom},
      {5, Keyword::kGroup},  {6, Keyword::kBy},       {8, Keyword::kOrder},
      {9, Keyword::kBy},     {11, Keyword::kDesc}};
  for (const auto& [i, kw] : keywords) {
    EXPECT_EQ(t[i].type, TokenType::kKeyword) << i;
    EXPECT_EQ(t[i].keyword, kw) << i;
  }
  EXPECT_EQ(t[0].text, "SELECT");
  EXPECT_EQ(t[1].text, "DISTINCT");
  EXPECT_EQ(t[11].text, "DESC");
  // Identifiers keep their spelling, and near-keywords stay identifiers.
  auto ids = Tokenize("Sel selects _select COUNTS");
  ASSERT_TRUE(ids.ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ids.value()[i].type, TokenType::kIdentifier) << i;
    EXPECT_EQ(ids.value()[i].keyword, Keyword::kNone) << i;
  }
  EXPECT_EQ(ids.value()[0].text, "Sel");
  // Aggregate names parse case-insensitively and keep the canonical op.
  auto stmt = ParseSelect("select CoUnT(*) as n, sUm(x) from t");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt.value()->items[0].expr->op, "COUNT");
  EXPECT_EQ(stmt.value()->items[1].expr->op, "SUM");
}

TEST(TokenizerTest, TokensBorrowTheSqlText) {
  const std::string sql =
      "SELECT user_id FROM t WHERE memo = 'pen' AND x != 1.5";
  auto r = Tokenize(sql);
  ASSERT_TRUE(r.ok());
  for (const Token& t : r.value()) {
    if (t.type == TokenType::kIdentifier || t.type == TokenType::kIntLiteral ||
        t.type == TokenType::kFloatLiteral ||
        t.type == TokenType::kStringLiteral) {
      // A view into `sql` at the token's own offset (past the quote
      // for a string literal).
      const size_t skip = t.type == TokenType::kStringLiteral ? 1 : 0;
      EXPECT_EQ(t.text.data(), sql.data() + t.offset + skip) << t.text;
    }
  }
  EXPECT_EQ(r.value()[10].symbol, Symbol::kNe);
  EXPECT_EQ(r.value()[10].text, "<>");
}

TEST(ParserTest, SimpleSelect) {
  auto r = ParseSelect("SELECT a, b FROM t WHERE a = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& stmt = *r.value();
  EXPECT_EQ(stmt.items.size(), 2u);
  EXPECT_EQ(stmt.from.table, "t");
  ASSERT_NE(stmt.where, nullptr);
  EXPECT_EQ(stmt.where->kind, AstExprKind::kCompare);
}

TEST(ParserTest, SelectStar) {
  auto r = ParseSelect("SELECT * FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()->items[0].expr->kind, AstExprKind::kStar);
}

TEST(ParserTest, Fig2QueryParses) {
  auto r = ParseSelect(kFig2Sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& stmt = *r.value();
  EXPECT_EQ(stmt.items.size(), 2u);
  EXPECT_EQ(stmt.items[1].alias, "cnt");
  ASSERT_TRUE(stmt.from.is_subquery());
  EXPECT_EQ(stmt.from.alias, "t1");
  ASSERT_EQ(stmt.joins.size(), 1u);
  EXPECT_EQ(stmt.joins[0].right.alias, "t2");
  EXPECT_EQ(stmt.group_by.size(), 1u);
  EXPECT_EQ(stmt.group_by[0]->qualifier, "t1");
}

TEST(ParserTest, AggregateCalls) {
  auto r = ParseSelect(
      "SELECT COUNT(*) c, SUM(x) s, MIN(x) mn, MAX(x) mx, AVG(x) a FROM t "
      "GROUP BY y");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value()->items.size(), 5u);
  EXPECT_EQ(r.value()->items[0].expr->op, "COUNT");
  EXPECT_TRUE(r.value()->items[0].expr->children.empty());
  EXPECT_EQ(r.value()->items[1].expr->op, "SUM");
}

TEST(ParserTest, SumStarRejected) {
  EXPECT_FALSE(ParseSelect("SELECT SUM(*) FROM t").ok());
}

TEST(ParserTest, AndOrPrecedence) {
  auto r = ParseSelect("SELECT a FROM t WHERE a = 1 AND b = 2 OR c = 3");
  ASSERT_TRUE(r.ok());
  // OR at the top, AND below.
  EXPECT_EQ(r.value()->where->kind, AstExprKind::kOr);
  EXPECT_EQ(r.value()->where->children[0]->kind, AstExprKind::kAnd);
}

TEST(ParserTest, NotAndParens) {
  auto r = ParseSelect("SELECT a FROM t WHERE NOT (a = 1 OR b = 2)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value()->where->kind, AstExprKind::kNot);
  EXPECT_EQ(r.value()->where->children[0]->kind, AstExprKind::kOr);
}

TEST(ParserTest, DerivedTableRequiresAlias) {
  EXPECT_FALSE(ParseSelect("SELECT a FROM (SELECT a FROM t)").ok());
}

TEST(ParserTest, TrailingTokensRejected) {
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE a = 1 ) x").ok());
}

TEST(ParserTest, MissingFromRejected) {
  EXPECT_FALSE(ParseSelect("SELECT a WHERE a = 1").ok());
}

TEST(ParserTest, RoundTripThroughToString) {
  auto r = ParseSelect(kFig2Sql);
  ASSERT_TRUE(r.ok());
  std::string rendered = r.value()->ToString();
  auto r2 = ParseSelect(rendered);
  ASSERT_TRUE(r2.ok()) << "re-parse of: " << rendered << "\n"
                       << r2.status().ToString();
  EXPECT_EQ(r2.value()->ToString(), rendered);
}

TEST(ParserTest, JoinWithoutInnerKeyword) {
  auto r = ParseSelect("SELECT a FROM t JOIN u ON t.x = u.x");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value()->joins.size(), 1u);
}

// Regression guard for the determinism lint's locale/UB findings: the
// parser used to route literals through std::atof/std::atoll, so
// "x > 1.5" parsed as 1.0 under a comma-decimal locale and overflowing
// integers were undefined behavior. std::from_chars is
// locale-independent and rejects out-of-range input, making plans (and
// thus view utilities) a pure function of the SQL text.

TEST(ParserTest, FloatLiteralParsesExactlyRegardlessOfLocale) {
  auto r = ParseSelect("SELECT a FROM t WHERE x > 1.5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const AstExpr& cmp = *r.value()->where;
  ASSERT_EQ(cmp.children.size(), 2u);
  const AstExpr& lit = *cmp.children[1];
  ASSERT_EQ(lit.kind, AstExprKind::kLiteral);
  EXPECT_TRUE(lit.literal.is_double());
  EXPECT_EQ(lit.literal.AsDouble(), 1.5);  // exact, not locale-mangled
}

TEST(ParserTest, Int64BoundaryLiteralsParse) {
  auto r =
      ParseSelect("SELECT a FROM t WHERE x = 9223372036854775807 LIMIT 42");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const AstExpr& lit = *r.value()->where->children[1];
  EXPECT_EQ(lit.literal.AsInt(), INT64_MAX);
  EXPECT_EQ(r.value()->limit, 42);
}

TEST(ParserTest, OverflowingIntLiteralRejected) {
  // Pre-fix this was UB via atoll; now it is a deterministic ParseError.
  auto r = ParseSelect("SELECT a FROM t WHERE x = 99999999999999999999");
  EXPECT_FALSE(r.ok());
  auto limit = ParseSelect("SELECT a FROM t LIMIT 99999999999999999999");
  EXPECT_FALSE(limit.ok());
}

}  // namespace
}  // namespace autoview
