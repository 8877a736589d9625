// Property-based (parameterized) suites: invariants checked across
// seed/shape sweeps rather than single examples.

#include <gtest/gtest.h>

#include <cmath>

#include "engine/executor.h"
#include "generators.h"
#include "engine/rewriter.h"
#include "engine/view_index.h"
#include "engine/view_store.h"
#include "nn/modules.h"
#include "plan/builder.h"
#include "plan/canonical.h"
#include "select/iterview.h"
#include "select/rlview.h"
#include "sql/parser.h"
#include "subquery/extractor.h"
#include "util/metrics.h"
#include "util/random.h"
#include "workload/generator.h"

namespace autoview {
namespace {

// ---------------------------------------------------------------------------
// SQL round-trip: for every generated workload query, parse -> render ->
// re-parse must be a fixed point, and both parses must plan to
// structurally equal trees.
// ---------------------------------------------------------------------------

class SqlRoundTripP : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlRoundTripP, ParseRenderReparseFixpoint) {
  CloudWorkloadSpec spec;
  spec.projects = 2;
  spec.queries = 25;
  spec.min_rows = 60;
  spec.max_rows = 120;
  spec.subquery_pool = 8;
  spec.seed = GetParam();
  GeneratedWorkload wk = GenerateCloudWorkload(spec);
  PlanBuilder builder(&wk.db->catalog());
  for (const auto& sql : wk.sql) {
    auto ast1 = ParseSelect(sql);
    ASSERT_TRUE(ast1.ok()) << sql;
    const std::string rendered = ast1.value()->ToString();
    auto ast2 = ParseSelect(rendered);
    ASSERT_TRUE(ast2.ok()) << rendered;
    EXPECT_EQ(ast2.value()->ToString(), rendered);
    auto p1 = builder.Build(*ast1.value());
    auto p2 = builder.Build(*ast2.value());
    ASSERT_TRUE(p1.ok() && p2.ok());
    EXPECT_TRUE(p1.value()->Equals(*p2.value()));
    EXPECT_EQ(CanonicalKey(*p1.value()), CanonicalKey(*p2.value()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlRoundTripP,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Engine invariants across seeds: filters select subsets; canonical-
// equivalent plans produce identical result bags; every extracted
// subquery executes; materialize+rewrite preserves results.
// ---------------------------------------------------------------------------

class EngineInvariantsP : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    CloudWorkloadSpec spec;
    spec.projects = 2;
    spec.queries = 15;
    spec.min_rows = 150;
    spec.max_rows = 400;
    spec.subquery_pool = 6;
    spec.seed = GetParam();
    wk_ = GenerateCloudWorkload(spec);
    builder_ = std::make_unique<PlanBuilder>(&wk_->db->catalog());
  }

  GeneratedWorkload* wk_ptr() { return wk_.operator->(); }

  std::optional<GeneratedWorkload> wk_;
  std::unique_ptr<PlanBuilder> builder_;
};

TEST_P(EngineInvariantsP, EquivalentPlansGiveIdenticalResults) {
  Executor exec(wk_->db.get());
  // Group the workload's subqueries by canonical key; execute one pair
  // per multi-member cluster and compare result bags (sorted by the
  // common column names).
  SubqueryExtractor extractor;
  std::map<std::string, PlanNodePtr> seen;
  size_t compared = 0;
  for (const auto& sql : wk_->sql) {
    auto plan = builder_->BuildFromSql(sql);
    ASSERT_TRUE(plan.ok());
    for (const auto& sub : extractor.Extract(plan.value())) {
      const std::string key = CanonicalKey(*sub);
      auto [it, inserted] = seen.emplace(key, sub);
      if (inserted || compared > 10) continue;
      // Equivalent subqueries must produce equal result bags (the
      // foundation of reusing one materialized view for all of them).
      auto a = exec.Execute(*it->second);
      auto b = exec.Execute(*sub);
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(a.value().table.num_rows(), b.value().table.num_rows());
      ++compared;
    }
  }
}

TEST_P(EngineInvariantsP, FilterOutputIsSubsetAndDeterministic) {
  Executor exec(wk_->db.get());
  for (size_t i = 0; i < 5 && i < wk_->sql.size(); ++i) {
    auto plan = builder_->BuildFromSql(wk_->sql[i]);
    ASSERT_TRUE(plan.ok());
    for (const auto& node : plan.value()->Subtrees()) {
      if (node->op() != PlanOp::kFilter) continue;
      auto filtered = exec.Execute(*node);
      auto input = exec.Execute(*node->child(0));
      ASSERT_TRUE(filtered.ok() && input.ok());
      EXPECT_LE(filtered.value().table.num_rows(),
                input.value().table.num_rows());
      auto again = exec.Execute(*node);
      ASSERT_TRUE(again.ok());
      EXPECT_TRUE(TablesEqualUnordered(filtered.value().table,
                                       again.value().table));
      EXPECT_EQ(filtered.value().cost.cpu_units, again.value().cost.cpu_units);
    }
  }
}

TEST_P(EngineInvariantsP, MaterializeRewriteRoundTrip) {
  Executor exec(wk_->db.get());
  MaterializedViewStore store(wk_->db.get());
  Rewriter rewriter(&wk_->db->catalog());
  SubqueryExtractor extractor;
  size_t verified = 0;
  for (const auto& sql : wk_->sql) {
    if (verified >= 6) break;
    auto plan = builder_->BuildFromSql(sql);
    ASSERT_TRUE(plan.ok());
    auto subs = extractor.Extract(plan.value());
    if (subs.empty()) continue;
    auto view = store.Materialize(subs[0], exec);
    if (!view.ok()) continue;  // already materialized for an earlier query
    bool changed = false;
    auto rewritten = rewriter.Rewrite(plan.value(), *view.value(), &changed);
    ASSERT_TRUE(rewritten.ok());
    ASSERT_TRUE(changed);
    auto before = exec.Execute(*plan.value());
    auto after = exec.Execute(*rewritten.value());
    ASSERT_TRUE(before.ok() && after.ok());
    EXPECT_TRUE(
        TablesEqualUnordered(before.value().table, after.value().table))
        << sql;
    ++verified;
  }
  EXPECT_GT(verified, 0u);
  ASSERT_TRUE(store.Clear().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineInvariantsP,
                         ::testing::Values(11, 12, 13, 14, 15));

// ---------------------------------------------------------------------------
// Predicate semantics: the executor binds a filter's comparisons once and
// reads cells in place. Across random tables (int64, double columns that
// also hold int cells, strings) and random AND/OR/NOT nests of all six
// comparisons (column-literal, literal-column, column-column and
// literal-literal), it must keep exactly the rows Expr::EvalPredicate
// keeps, in order, and report their count and bytes.
// ---------------------------------------------------------------------------

constexpr int64_t kBigInt = int64_t{1} << 53;  // kBigInt + 1 is not a double

Value RandomCell(ColumnType type, Rng* rng) {
  switch (type) {
    case ColumnType::kInt64: {
      const int64_t v = rng->UniformInt(-3, 4);
      return Value(v == 4 ? kBigInt + 1 : v);
    }
    case ColumnType::kDouble: {
      // Database::AddTable admits int cells in a double column.
      if (rng->Bernoulli(0.4)) return Value(rng->UniformInt(-3, 3));
      static const double kDoubles[] = {-2.5, 0.5, 2.999, 3.0,
                                        static_cast<double>(kBigInt)};
      return Value(kDoubles[rng->UniformInt(0, 4)]);
    }
    case ColumnType::kString: {
      static const char* kStrings[] = {"", "a", "ab", "b", "3"};
      return Value(kStrings[rng->UniformInt(0, 4)]);
    }
  }
  return Value();
}

/// A literal of any type: 3 and 3.0, 2^53 as int and double, strings.
Value RandomLiteral(Rng* rng) {
  const ColumnType types[] = {ColumnType::kInt64, ColumnType::kDouble,
                              ColumnType::kString};
  Value v = RandomCell(types[rng->UniformInt(0, 2)], rng);
  if (rng->Bernoulli(0.1)) v = Value(kBigInt);
  return v;
}

/// Adds table `name` with `rows` random rows over `columns`.
void AddRandomTable(Database* db, const std::string& name,
                    const std::vector<ColumnSchema>& columns, size_t rows,
                    Rng* rng) {
  std::vector<Row> data(rows);
  for (Row& row : data) {
    for (const auto& c : columns) row.push_back(RandomCell(c.type, rng));
  }
  ASSERT_TRUE(db->AddTable(TableSchema(name, columns), std::move(data)).ok());
}

/// A random boolean expression over the columns `cols`.
ExprPtr RandomPredicate(const std::vector<OutputColumn>& cols, int depth,
                        Rng* rng) {
  auto column = [&] {
    const auto c = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(cols.size()) - 1));
    return Expr::Column(c, cols[c].name, cols[c].type);
  };
  if (depth > 0 && rng->Bernoulli(0.45)) {
    const int64_t kind = rng->UniformInt(0, 2);
    if (kind == 2) return Expr::Not(RandomPredicate(cols, depth - 1, rng));
    std::vector<ExprPtr> children;
    const int64_t n = rng->UniformInt(2, 3);
    for (int64_t i = 0; i < n; ++i) {
      children.push_back(RandomPredicate(cols, depth - 1, rng));
    }
    return kind == 0 ? Expr::And(std::move(children))
                     : Expr::Or(std::move(children));
  }
  const auto op = static_cast<CompareOp>(rng->UniformInt(0, 5));
  const double shape = rng->Uniform01();
  if (shape < 0.4) {
    return Expr::Compare(op, column(), Expr::Literal(RandomLiteral(rng)));
  }
  if (shape < 0.7) {
    return Expr::Compare(op, Expr::Literal(RandomLiteral(rng)), column());
  }
  if (shape < 0.93) return Expr::Compare(op, column(), column());
  return Expr::Compare(op, Expr::Literal(RandomLiteral(rng)),
                       Expr::Literal(RandomLiteral(rng)));
}

/// Rows equal cell by cell, types included (3 and 3.0 differ here).
void ExpectSameRows(const std::vector<Row>& got, const std::vector<Row>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << what;
    for (size_t c = 0; c < got[i].size(); ++c) {
      ASSERT_EQ(got[i][c].type(), want[i][c].type()) << what << " row " << i;
      ASSERT_EQ(got[i][c].Compare(want[i][c]), 0) << what << " row " << i;
    }
  }
}

/// Executes `plan` and checks it returns `want`, in order, with the
/// matching output_rows and output_bytes.
void ExpectExecutes(const Executor& exec, const PlanNode& plan,
                    const std::vector<Row>& want, const std::string& what) {
  auto got = exec.Execute(plan);
  ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
  ExpectSameRows(got.value().table.rows, want, what);
  uint64_t bytes = 0;
  for (const Row& row : want) {
    for (const Value& v : row) bytes += v.ByteSize();
  }
  EXPECT_EQ(got.value().cost.output_rows, want.size()) << what;
  EXPECT_EQ(got.value().cost.output_bytes, bytes) << what;
  auto cost = exec.ExecuteForCost(plan);
  ASSERT_TRUE(cost.ok()) << what;
  EXPECT_EQ(cost.value().output_rows, want.size()) << what;
  EXPECT_EQ(cost.value().output_bytes, bytes) << what;
}

class PredicateSemanticsP : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    AddRandomTable(&db_, "t",
                   {{"i", ColumnType::kInt64},
                    {"d", ColumnType::kDouble},
                    {"s", ColumnType::kString},
                    {"j", ColumnType::kInt64},
                    {"e", ColumnType::kDouble}},
                   32, &rng);
    AddRandomTable(&db_, "u",
                   {{"k", ColumnType::kInt64},
                    {"f", ColumnType::kDouble},
                    {"w", ColumnType::kString}},
                   8, &rng);
  }

  PlanNodePtr Scan(const std::string& table) {
    auto scan = PlanNode::MakeScan(db_.catalog(), table);
    EXPECT_TRUE(scan.ok());
    return scan.value();
  }

  const std::vector<Row>& Stored(const std::string& table) {
    return db_.GetTable(table).value()->rows;
  }

  Database db_;
};

TEST_P(PredicateSemanticsP, FilterKeepsTheRowsTheTreeKeeps) {
  Executor exec(&db_);
  Rng rng(GetParam() * 7 + 1);
  PlanNodePtr scan = Scan("t");
  const auto& cols = scan->output();
  for (int trial = 0; trial < 50; ++trial) {
    ExprPtr pred = RandomPredicate(cols, 3, &rng);
    auto filter = PlanNode::MakeFilter(scan, pred);
    ASSERT_TRUE(filter.ok());
    std::vector<Row> want;
    for (const Row& row : Stored("t")) {
      if (pred->EvalPredicate(row)) want.push_back(row);
    }
    ExpectExecutes(exec, *filter.value(), want, pred->ToPrefixString());

    // A filter over the filter narrows its selection.
    ExprPtr outer = RandomPredicate(cols, 1, &rng);
    auto narrowed = PlanNode::MakeFilter(filter.value(), outer);
    ASSERT_TRUE(narrowed.ok());
    std::vector<Row> both;
    for (const Row& row : want) {
      if (outer->EvalPredicate(row)) both.push_back(row);
    }
    ExpectExecutes(exec, *narrowed.value(), both,
                   outer->ToPrefixString() + " over " + pred->ToPrefixString());

    // Project over the filter: the projected cells of the kept rows.
    std::vector<ProjectItem> items = {
        {Expr::Column(2, "s", ColumnType::kString), "s"},
        {Expr::Literal(Value(int64_t{7})), "seven"},
        {Expr::Column(1, "d", ColumnType::kDouble), "d"}};
    auto project = PlanNode::MakeProject(filter.value(), items);
    ASSERT_TRUE(project.ok());
    std::vector<Row> projected;
    for (const Row& row : want) {
      projected.push_back({row[2], Value(int64_t{7}), row[1]});
    }
    ExpectExecutes(exec, *project.value(), projected,
                   "project over " + pred->ToPrefixString());
  }
}

TEST_P(PredicateSemanticsP, FilterOverJoinOutputAndJoinResiduals) {
  Executor exec(&db_);
  Rng rng(GetParam() * 13 + 5);
  PlanNodePtr t = Scan("t");
  PlanNodePtr u = Scan("u");
  const size_t t_width = t->output().size();
  const auto key =
      Expr::Compare(CompareOp::kEq, Expr::Column(0, "i", ColumnType::kInt64),
                    Expr::Column(t_width, "k", ColumnType::kInt64));
  auto equi = PlanNode::MakeJoin(t, u, key);
  ASSERT_TRUE(equi.ok());
  const auto& cols = equi.value()->output();
  auto joined = exec.Execute(*equi.value());
  ASSERT_TRUE(joined.ok());

  // The nested-loop reference: every pair, left-major, in right row order.
  std::vector<Row> pairs;
  for (const Row& l : Stored("t")) {
    for (const Row& r : Stored("u")) {
      pairs.push_back(l);
      pairs.back().insert(pairs.back().end(), r.begin(), r.end());
    }
  }
  auto reference_join = [&](const Expr& cond) {
    std::vector<Row> want;
    for (const Row& pair : pairs) {
      if (cond.EvalPredicate(pair)) want.push_back(pair);
    }
    return want;
  };
  ExpectSameRows(joined.value().table.rows, reference_join(*key), "equi join");

  for (int trial = 0; trial < 15; ++trial) {
    ExprPtr pred = RandomPredicate(cols, 2, &rng);
    const std::string what = pred->ToPrefixString();

    // A filter over the join's owned output.
    auto filter = PlanNode::MakeFilter(equi.value(), pred);
    ASSERT_TRUE(filter.ok());
    std::vector<Row> want;
    for (const Row& row : joined.value().table.rows) {
      if (pred->EvalPredicate(row)) want.push_back(row);
    }
    ExpectExecutes(exec, *filter.value(), want, "filter over join " + what);

    // The predicate as the residual of a hash join, and alone as the
    // condition of a nested-loop join.
    auto with_key = Expr::And({key, pred});
    auto hash = PlanNode::MakeJoin(t, u, with_key);
    ASSERT_TRUE(hash.ok());
    ExpectExecutes(exec, *hash.value(), reference_join(*with_key),
                   "hash join " + what);
    auto loop = PlanNode::MakeJoin(t, u, pred);
    ASSERT_TRUE(loop.ok());
    ExpectExecutes(exec, *loop.value(), reference_join(*pred),
                   "nested-loop join " + what);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateSemanticsP,
                         ::testing::Values(31, 32, 33));

// ---------------------------------------------------------------------------
// Random SQL through rewrite: random WHERE clauses over the generated star
// schema, in derived tables that repeat across queries (so views match)
// and in the outer queries. Each query is planned, rewritten under random
// subsets of the materialized views (RewriteAllIndexed over a ViewIndex
// of the subset, the serving path) and executed; every rewrite must
// return the base plan's rows.
// ---------------------------------------------------------------------------

struct SqlColumn {
  const char* name;
  std::vector<std::string> literals;  ///< SQL literals of its domain
};

std::string RandomWhere(const std::string& prefix,
                        const std::vector<SqlColumn>& cols, int depth,
                        Rng* rng) {
  auto pick = [&](size_t n) {
    return static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  if (depth > 0 && rng->Bernoulli(0.4)) {
    const int64_t kind = rng->UniformInt(0, 2);
    if (kind == 2) {
      return "not (" + RandomWhere(prefix, cols, depth - 1, rng) + ")";
    }
    const std::string left = RandomWhere(prefix, cols, depth - 1, rng);
    const std::string right = RandomWhere(prefix, cols, depth - 1, rng);
    return "(" + left + (kind == 0 ? " and " : " or ") + right + ")";
  }
  static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
  const std::string op = kOps[pick(6)];
  const SqlColumn& a = cols[pick(cols.size())];
  const std::string col = prefix + a.name;
  const double shape = rng->Uniform01();
  if (shape < 0.15) {
    const SqlColumn& b = cols[pick(cols.size())];
    return col + " " + op + " " + prefix + b.name;
  }
  const std::string lit = a.literals[pick(a.literals.size())];
  return shape < 0.6 ? col + " " + op + " " + lit : lit + " " + op + " " + col;
}

class RandomSqlRewriteP : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomSqlRewriteP, RewritesUnderViewSubsetsKeepResults) {
  CloudWorkloadSpec spec;
  spec.projects = 1;
  spec.queries = 0;
  spec.min_rows = 80;
  spec.max_rows = 160;
  spec.subquery_pool = 1;
  spec.seed = GetParam();
  GeneratedWorkload wk = GenerateCloudWorkload(spec);
  Rng rng(GetParam() * 17 + 3);

  const std::vector<SqlColumn> events = {
      {"user_id", {"0", "2", "5", "9"}},
      {"item_id", {"0", "1", "3", "4.5"}},
      {"type", {"0", "2", "3.0", "5"}},
      {"dt", {"'2020-01-01'", "'2020-01-02'", "'2020-01-04'", "3"}},
      {"value", {"10", "50", "50.5", "99"}}};
  const std::vector<SqlColumn> users = {
      {"user_id", {"1", "4", "8"}},
      {"region", {"'north'", "'east'", "'west'", "'zzz'"}},
      {"age", {"25", "40", "40.0", "63"}}};
  const std::vector<SqlColumn> items = {
      {"item_id", {"0", "2", "5"}},
      {"category", {"'food'", "'toys'", "'home'"}},
      {"price", {"50", "250", "400"}}};
  // The outer queries filter on the events derived table's columns.
  const std::vector<SqlColumn> outer = {{"value", events[4].literals},
                                        {"user_id", events[0].literals}};

  // Derived tables, each reused by several queries.
  std::vector<std::string> e_pool, u_pool, i_pool;
  for (int k = 0; k < 3; ++k) {
    e_pool.push_back("select user_id, item_id, value from p0_events where " +
                     RandomWhere("", events, 2, &rng));
    u_pool.push_back("select user_id, region from p0_users where " +
                     RandomWhere("", users, 2, &rng));
    i_pool.push_back("select item_id, category from p0_items where " +
                     RandomWhere("", items, 1, &rng));
  }
  auto any = [&](const std::vector<std::string>& pool) {
    return pool[static_cast<size_t>(rng.UniformInt(0, 2))];
  };
  std::vector<std::string> queries;
  for (int q = 0; q < 12; ++q) {
    const std::string e = any(e_pool);
    const std::string u = any(u_pool);
    const std::string i = any(i_pool);
    switch (q % 4) {
      case 0:
        queries.push_back(
            "select t.user_id, count(*) as cnt, sum(t.value) as total from (" +
            e + ") t where " + RandomWhere("t.", outer, 1, &rng) +
            " group by t.user_id");
        break;
      case 1:
        queries.push_back("select u.region, sum(e.value) as total from (" + e +
                          ") e inner join (" + u +
                          ") u on e.user_id = u.user_id where " +
                          RandomWhere("e.", outer, 1, &rng) +
                          " group by u.region");
        break;
      case 2:
        queries.push_back(
            "select u.region, i.category, count(*) as cnt from (" + e +
            ") e inner join (" + u + ") u on e.user_id = u.user_id inner "
            "join (" + i + ") i on e.item_id = i.item_id group by u.region, "
            "i.category");
        break;
      default:
        queries.push_back("select e.user_id, e.value from (" + e +
                          ") e where " + RandomWhere("e.", outer, 2, &rng));
        break;
    }
  }

  PlanBuilder builder(&wk.db->catalog());
  Executor exec(wk.db.get());
  MaterializedViewStore store(wk.db.get());
  SubqueryExtractor extractor;
  std::vector<PlanNodePtr> plans;
  std::vector<const MaterializedView*> views;
  for (const auto& sql : queries) {
    auto plan = builder.BuildFromSql(sql);
    ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    plans.push_back(plan.value());
    for (const auto& sub : extractor.Extract(plan.value())) {
      auto view = store.Materialize(sub, exec);
      if (view.ok()) views.push_back(view.value());  // else already built
    }
  }
  ASSERT_GE(views.size(), 3u);

  Rewriter rewriter(&wk.db->catalog());
  size_t substitutions = 0;
  for (size_t q = 0; q < plans.size(); ++q) {
    auto base = exec.Execute(*plans[q]);
    ASSERT_TRUE(base.ok()) << queries[q];
    for (int subset = 0; subset < 2; ++subset) {
      ViewIndex index;
      for (const MaterializedView* view : views) {  // ascending id
        if (rng.Bernoulli(0.5)) index.Insert(*view);
      }
      size_t n = 0;
      auto rewritten = rewriter.RewriteAllIndexed(plans[q], index, &n, nullptr);
      ASSERT_TRUE(rewritten.ok()) << queries[q];
      substitutions += n;
      auto got = exec.Execute(*rewritten.value());
      ASSERT_TRUE(got.ok()) << queries[q];
      EXPECT_TRUE(TablesEqualUnordered(base.value().table, got.value().table))
          << queries[q] << "\nrewritten: " << rewritten.value()->ToString();
    }
  }
  EXPECT_GT(substitutions, 0u);
  ASSERT_TRUE(store.Clear().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSqlRewriteP,
                         ::testing::Values(41, 42, 43));

// ---------------------------------------------------------------------------
// Selector invariants across random instances: feasibility always holds,
// the reported utility matches EvaluateUtility, and the exact OPT
// dominates heuristics.
// ---------------------------------------------------------------------------

using testing::RandomProblem;

class SelectorInvariantsP : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SelectorInvariantsP, AllMethodsFeasibleAndSelfConsistent) {
  MvsProblem p = RandomProblem(12, 10, GetParam());
  std::vector<std::unique_ptr<ViewSelector>> selectors;
  selectors.push_back(std::make_unique<TopkSelector>(TopkStrategy::kBenefit, 4));
  selectors.push_back(std::make_unique<TopkSelector>(TopkStrategy::kNormalized, 6));
  selectors.push_back(std::make_unique<IterViewSelector>(
      IterViewSelector::IterView(25, GetParam())));
  selectors.push_back(std::make_unique<IterViewSelector>(
      IterViewSelector::BigSub(25, GetParam())));
  RLViewSelector::Options rl;
  rl.init_iterations = 5;
  rl.episodes = 4;
  rl.seed = GetParam();
  selectors.push_back(std::make_unique<RLViewSelector>(rl));
  for (auto& selector : selectors) {
    auto result = selector->Select(p);
    ASSERT_TRUE(result.ok()) << selector->name();
    EXPECT_TRUE(IsFeasible(p, result.value().z, result.value().y))
        << selector->name();
    EXPECT_NEAR(result.value().utility,
                EvaluateUtility(p, result.value().z, result.value().y), 1e-9)
        << selector->name();
    EXPECT_FALSE(selector->utility_trace().empty()) << selector->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectorInvariantsP,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

// ---------------------------------------------------------------------------
// Autograd gradient checks across module shapes.
// ---------------------------------------------------------------------------

struct GradShape {
  size_t in;
  size_t hidden;
  size_t seq;
};

class LstmGradP : public ::testing::TestWithParam<GradShape> {};

TEST_P(LstmGradP, MatchesNumericGradient) {
  const GradShape shape = GetParam();
  Rng rng(shape.in * 31 + shape.hidden * 7 + shape.seq);
  nn::Lstm lstm(shape.in, shape.hidden, &rng);
  nn::Tensor seq = nn::Tensor::Uniform(shape.seq, shape.in, 1.0, &rng);

  auto loss_fn = [&] { return Sum(lstm.Forward(seq)); };
  for (auto p : lstm.Parameters()) p.ZeroGrad();
  loss_fn().Backward();
  std::vector<std::vector<nn::Scalar>> analytic;
  for (const auto& p : lstm.Parameters()) analytic.push_back(p.grad());

  const nn::Scalar h = 1e-5;
  auto params = lstm.Parameters();
  for (size_t pi = 0; pi < params.size(); ++pi) {
    // Spot-check a deterministic subset of coordinates to keep runtime
    // bounded across the sweep.
    for (size_t j = 0; j < params[pi].size(); j += 7) {
      nn::Tensor p = params[pi];
      const nn::Scalar original = p.data()[j];
      p.mutable_data()[j] = original + h;
      const nn::Scalar up = loss_fn().item();
      p.mutable_data()[j] = original - h;
      const nn::Scalar down = loss_fn().item();
      p.mutable_data()[j] = original;
      const nn::Scalar numeric = (up - down) / (2 * h);
      EXPECT_NEAR(analytic[pi][j], numeric,
                  1e-4 * std::max(1.0, std::fabs(numeric)))
          << "param " << pi << " index " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, LstmGradP,
                         ::testing::Values(GradShape{2, 3, 1},
                                           GradShape{3, 5, 4},
                                           GradShape{6, 4, 6},
                                           GradShape{4, 8, 2}));

// ---------------------------------------------------------------------------
// Zipf sampler: bounds, determinism, and monotone skew across exponents.
// ---------------------------------------------------------------------------

class ZipfP : public ::testing::TestWithParam<double> {};

TEST_P(ZipfP, BoundedAndSkewIncreasesWithS) {
  const double s = GetParam();
  Rng rng(99);
  const int64_t n = 50;
  size_t head = 0;
  for (int i = 0; i < 4000; ++i) {
    int64_t v = rng.Zipf(n, s);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, n);
    head += v < 5;
  }
  // Under uniform (s=0) the head holds ~10%; skew grows with s.
  const double frac = static_cast<double>(head) / 4000.0;
  if (s == 0.0) {
    EXPECT_NEAR(frac, 0.1, 0.03);
  } else if (s >= 1.0) {
    EXPECT_GT(frac, 0.4);
  } else {
    EXPECT_GT(frac, 0.15);
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfP,
                         ::testing::Values(0.0, 0.5, 1.0, 1.5, 2.0));

}  // namespace
}  // namespace autoview
