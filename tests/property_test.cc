// Property-based (parameterized) suites: invariants checked across
// seed/shape sweeps rather than single examples.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>

#include "engine/executor.h"
#include "expr_eval.h"
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
#include "util/strings.h"
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
// literal-literal), it must keep exactly the rows EvalPredicate
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

/// `n` random rows over `columns`.
std::vector<Row> RandomRows(const std::vector<ColumnSchema>& columns,
                            size_t n, Rng* rng) {
  std::vector<Row> rows(n);
  for (Row& row : rows) {
    for (const auto& c : columns) row.push_back(RandomCell(c.type, rng));
  }
  return rows;
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

/// The rows of `rows`, in order.
std::vector<Row> RowsOf(const TableRows& rows) {
  return std::vector<Row>(rows.begin(), rows.end());
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
  ExpectSameRows(RowsOf(got.value().table.rows), want, what);
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

/// Two random tables: t (32 rows) and u (8 rows), with int64 columns,
/// double columns that also hold int cells, and string columns.
class RandomTablesP : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    Add("t",
        {{"i", ColumnType::kInt64},
         {"d", ColumnType::kDouble},
         {"s", ColumnType::kString},
         {"j", ColumnType::kInt64},
         {"e", ColumnType::kDouble}},
        32, &rng);
    Add("u",
        {{"k", ColumnType::kInt64},
         {"f", ColumnType::kDouble},
         {"w", ColumnType::kString}},
        8, &rng);
  }

  void Add(const std::string& name, const std::vector<ColumnSchema>& columns,
           size_t n, Rng* rng) {
    std::vector<Row> rows = RandomRows(columns, n, rng);
    stored_[name] = rows;
    ASSERT_TRUE(
        db_.AddTable(TableSchema(name, columns), std::move(rows)).ok());
  }

  PlanNodePtr Scan(const std::string& table) {
    auto scan = PlanNode::MakeScan(db_.catalog(), table);
    EXPECT_TRUE(scan.ok());
    return scan.value();
  }

  /// The rows loaded into `table`, as generated (not read back from it).
  const std::vector<Row>& Stored(const std::string& table) {
    return stored_.at(table);
  }

  Database db_;
  std::map<std::string, std::vector<Row>> stored_;
};

class PredicateSemanticsP : public RandomTablesP {};

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
      if (EvalPredicate(*pred, row)) want.push_back(row);
    }
    ExpectExecutes(exec, *filter.value(), want, pred->ToPrefixString());

    // A filter over the filter narrows its selection.
    ExprPtr outer = RandomPredicate(cols, 1, &rng);
    auto narrowed = PlanNode::MakeFilter(filter.value(), outer);
    ASSERT_TRUE(narrowed.ok());
    std::vector<Row> both;
    for (const Row& row : want) {
      if (EvalPredicate(*outer, row)) both.push_back(row);
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
      if (EvalPredicate(cond, pair)) want.push_back(pair);
    }
    return want;
  };
  ExpectSameRows(RowsOf(joined.value().table.rows), reference_join(*key),
                 "equi join");

  for (int trial = 0; trial < 15; ++trial) {
    ExprPtr pred = RandomPredicate(cols, 2, &rng);
    const std::string what = pred->ToPrefixString();

    // A filter over the join's owned output.
    auto filter = PlanNode::MakeFilter(equi.value(), pred);
    ASSERT_TRUE(filter.ok());
    std::vector<Row> want;
    for (const Row& row : joined.value().table.rows) {
      if (EvalPredicate(*pred, row)) want.push_back(row);
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
// Operator semantics: aggregate, distinct, sort and limit read typed
// columns, and joins key on them. Over the random tables (mixed double
// columns, 2^53 + 1, 3 vs 3.0, strings), their inputs (all of t, a
// random filter of it, often empty, and int x double equi-joins of t and
// u) and their own outputs (MIN/MAX over no rows put an int 0 in a double
// or string column), each must return the rows of a row-at-a-time
// reference, in order and with their cell types, and report their count
// and bytes. The table round trip keeps every cell and its type.
// ---------------------------------------------------------------------------

/// True when the cells `cols` of `a` and `b` compare equal pairwise.
bool SameCells(const Row& a, const Row& b, const std::vector<size_t>& cols) {
  for (size_t c : cols) {
    if (a[c].Compare(b[c]) != 0) return false;
  }
  return true;
}

/// Row-at-a-time aggregation: groups in first-seen order, each aggregate
/// accumulated as the executor defines it.
std::vector<Row> ReferenceAggregate(const std::vector<Row>& in,
                                    const PlanNode& agg) {
  const auto& group_by = agg.group_by();
  const auto& items = agg.aggregates();
  struct Group {
    Row first;
    std::vector<int64_t> count, sum_int;
    std::vector<double> sum_double;
    std::vector<std::optional<Value>> min, max;
  };
  std::vector<Group> groups;
  const auto new_group = [&](Row first) {
    Group g;
    g.first = std::move(first);
    g.count.assign(items.size(), 0);
    g.sum_int.assign(items.size(), 0);
    g.sum_double.assign(items.size(), 0.0);
    g.min.resize(items.size());
    g.max.resize(items.size());
    groups.push_back(std::move(g));
  };
  for (const Row& row : in) {
    Group* group = nullptr;
    for (Group& g : groups) {
      if (SameCells(row, g.first, group_by)) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      new_group(row);
      group = &groups.back();
    }
    for (size_t a = 0; a < items.size(); ++a) {
      group->count[a] += 1;
      if (!items[a].input_column) continue;
      const Value& v = row[*items[a].input_column];
      switch (items[a].kind) {
        case AggKind::kSum:
        case AggKind::kAvg:
          if (v.is_int()) group->sum_int[a] += v.AsInt();
          group->sum_double[a] += v.AsDouble();
          break;
        case AggKind::kMin:
          if (!group->min[a] || v < *group->min[a]) group->min[a] = v;
          break;
        case AggKind::kMax:
          if (!group->max[a] || *group->max[a] < v) group->max[a] = v;
          break;
        default:
          break;
      }
    }
  }
  if (groups.empty() && group_by.empty()) new_group(Row{});
  std::vector<Row> out;
  for (const Group& g : groups) {
    Row row;
    for (size_t c : group_by) row.push_back(g.first[c]);
    for (size_t a = 0; a < items.size(); ++a) {
      const ColumnType type = agg.output()[group_by.size() + a].type;
      switch (items[a].kind) {
        case AggKind::kCountStar:
        case AggKind::kCount:
          row.push_back(Value(g.count[a]));
          break;
        case AggKind::kSum:
          row.push_back(type == ColumnType::kInt64 ? Value(g.sum_int[a])
                                                   : Value(g.sum_double[a]));
          break;
        case AggKind::kAvg:
          row.push_back(Value(g.count[a] ? g.sum_double[a] /
                                               static_cast<double>(g.count[a])
                                         : 0.0));
          break;
        case AggKind::kMin:
          row.push_back(g.min[a].value_or(Value(int64_t{0})));
          break;
        case AggKind::kMax:
          row.push_back(g.max[a].value_or(Value(int64_t{0})));
          break;
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

/// The first occurrence of each row, in order.
std::vector<Row> ReferenceDistinct(const std::vector<Row>& in) {
  std::vector<Row> out;
  for (const Row& row : in) {
    std::vector<size_t> all(row.size());
    for (size_t c = 0; c < all.size(); ++c) all[c] = c;
    bool seen = false;
    for (const Row& kept : out) seen = seen || SameCells(row, kept, all);
    if (!seen) out.push_back(row);
  }
  return out;
}

/// The rows ordered by `keys`, then by the full row.
std::vector<Row> ReferenceSort(std::vector<Row> rows,
                               const std::vector<SortKey>& keys) {
  std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    for (const SortKey& key : keys) {
      const int c = a[key.column].Compare(b[key.column]);
      if (c != 0) return key.descending ? c > 0 : c < 0;
    }
    for (size_t i = 0; i < a.size(); ++i) {
      const int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  });
  return rows;
}

class OperatorSemanticsP : public RandomTablesP {
 protected:
  size_t Pick(size_t n, Rng* rng) {
    return static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
  }

  /// Checks an aggregate of every kind over `input` (whose rows are
  /// `rows`), without GROUP BY and grouped by one or two random columns,
  /// and the distinct, sort and limit operators over `input` and over
  /// each aggregate's output.
  void CheckOperators(const Executor& exec, const PlanNodePtr& input,
                      const std::vector<Row>& rows, const std::string& what,
                      Rng* rng) {
    const auto& cols = input->output();
    std::vector<size_t> numeric;
    for (size_t c = 0; c < cols.size(); ++c) {
      if (cols[c].type != ColumnType::kString) numeric.push_back(c);
    }
    for (const int64_t groups : {int64_t{0}, rng->UniformInt(1, 2)}) {
      std::vector<size_t> group_by;
      for (int64_t g = 0; g < groups; ++g) {
        group_by.push_back(Pick(cols.size(), rng));
      }
      std::vector<AggItem> items = {
          {AggKind::kCountStar, std::nullopt, "", "n"},
          {AggKind::kCount, Pick(cols.size(), rng), "", "c"},
          {AggKind::kSum, numeric[Pick(numeric.size(), rng)], "", "sum"},
          {AggKind::kAvg, numeric[Pick(numeric.size(), rng)], "", "avg"},
          {AggKind::kMin, Pick(cols.size(), rng), "", "lo"},
          {AggKind::kMax, Pick(cols.size(), rng), "", "hi"},
          {AggKind::kMin, numeric[Pick(numeric.size(), rng)], "", "lo_n"},
          {AggKind::kMax, numeric[Pick(numeric.size(), rng)], "", "hi_n"}};
      auto agg = PlanNode::MakeAggregate(input, group_by, items);
      ASSERT_TRUE(agg.ok()) << agg.status().ToString();
      const std::vector<Row> aggregated =
          ReferenceAggregate(rows, *agg.value());
      const std::string where =
          StrFormat("aggregate (%d group columns) over %s",
                    static_cast<int>(groups), what.c_str());
      ExpectExecutes(exec, *agg.value(), aggregated, where);
      CheckRowOperators(exec, agg.value(), aggregated, where, rng);
    }
    CheckRowOperators(exec, input, rows, what, rng);
  }

  /// Distinct over a projection, sort, and limit over `input`.
  void CheckRowOperators(const Executor& exec, const PlanNodePtr& input,
                         const std::vector<Row>& rows,
                         const std::string& what, Rng* rng) {
    const auto& cols = input->output();
    std::vector<ProjectItem> items;
    std::vector<size_t> picked;
    const int64_t width = rng->UniformInt(1, 2);
    for (int64_t k = 0; k < width; ++k) {
      const size_t c = Pick(cols.size(), rng);
      picked.push_back(c);
      items.push_back({Expr::Column(c, cols[c].name, cols[c].type),
                       std::string("p").append(std::to_string(k))});
    }
    auto project = PlanNode::MakeProject(input, items);
    ASSERT_TRUE(project.ok());
    auto distinct = PlanNode::MakeDistinct(project.value());
    ASSERT_TRUE(distinct.ok());
    std::vector<Row> projected;
    for (const Row& row : rows) {
      Row p;
      for (size_t c : picked) p.push_back(row[c]);
      projected.push_back(std::move(p));
    }
    ExpectExecutes(exec, *distinct.value(), ReferenceDistinct(projected),
                   "distinct over " + what);
    auto whole = PlanNode::MakeDistinct(input);
    ASSERT_TRUE(whole.ok());
    ExpectExecutes(exec, *whole.value(), ReferenceDistinct(rows),
                   "distinct rows of " + what);

    std::vector<SortKey> keys;
    const int64_t n_keys = rng->UniformInt(1, 2);
    for (int64_t k = 0; k < n_keys; ++k) {
      keys.push_back({Pick(cols.size(), rng), rng->Bernoulli(0.5)});
    }
    auto sort = PlanNode::MakeSort(input, keys);
    ASSERT_TRUE(sort.ok());
    const std::vector<Row> sorted = ReferenceSort(rows, keys);
    ExpectExecutes(exec, *sort.value(), sorted, "sort of " + what);
    const int64_t n = rng->UniformInt(0, 12);
    auto top = PlanNode::MakeLimit(sort.value(), n);
    auto head = PlanNode::MakeLimit(input, n);
    ASSERT_TRUE(top.ok() && head.ok());
    const auto first = [n](const std::vector<Row>& all) {
      return std::vector<Row>(
          all.begin(),
          all.begin() + std::min<int64_t>(n, static_cast<int64_t>(all.size())));
    };
    ExpectExecutes(exec, *top.value(), first(sorted), "top-n of " + what);
    ExpectExecutes(exec, *head.value(), first(rows), "limit of " + what);
  }
};

TEST_P(OperatorSemanticsP, OperatorsMatchTheRowReference) {
  Executor exec(&db_);
  Rng rng(GetParam() * 11 + 7);
  PlanNodePtr t = Scan("t");
  PlanNodePtr u = Scan("u");
  CheckOperators(exec, t, Stored("t"), "t", &rng);

  // No rows: MIN and MAX yield an int 0 in double and string columns.
  auto none = PlanNode::MakeFilter(
      t, Expr::Compare(CompareOp::kEq, Expr::Literal(Value(int64_t{1})),
                       Expr::Literal(Value(int64_t{2}))));
  ASSERT_TRUE(none.ok());
  CheckOperators(exec, none.value(), {}, "no rows", &rng);

  for (int trial = 0; trial < 12; ++trial) {
    ExprPtr pred = RandomPredicate(t->output(), 2, &rng);
    auto filter = PlanNode::MakeFilter(t, pred);
    ASSERT_TRUE(filter.ok());
    std::vector<Row> kept;
    for (const Row& row : Stored("t")) {
      if (EvalPredicate(*pred, row)) kept.push_back(row);
    }
    CheckOperators(exec, filter.value(), kept, pred->ToPrefixString(), &rng);
  }

  // Equi-joins of an int column with a double column, both ways round:
  // int 3 joins double 3.0, 2^53 + 1 does not join 2^53.
  const size_t t_width = t->output().size();
  const std::vector<std::pair<size_t, size_t>> keys = {
      {0, t_width + 1}, {1, t_width}, {4, t_width + 1}, {3, t_width}};
  for (const auto& [l, r] : keys) {
    const auto& cols = t->output();
    const auto& u_cols = u->output();
    ExprPtr cond = Expr::Compare(
        CompareOp::kEq, Expr::Column(l, cols[l].name, cols[l].type),
        Expr::Column(r, u_cols[r - t_width].name, u_cols[r - t_width].type));
    auto join = PlanNode::MakeJoin(t, u, cond);
    ASSERT_TRUE(join.ok());
    std::vector<Row> joined;
    for (const Row& lrow : Stored("t")) {
      for (const Row& rrow : Stored("u")) {
        Row pair = lrow;
        pair.insert(pair.end(), rrow.begin(), rrow.end());
        if (EvalPredicate(*cond, pair)) joined.push_back(std::move(pair));
      }
    }
    const std::string what = "join " + cond->ToPrefixString();
    ExpectExecutes(exec, *join.value(), joined, what);
    CheckOperators(exec, join.value(), joined, what, &rng);
  }
}

TEST_P(OperatorSemanticsP, TableRoundTripKeepsCellsAndTypes) {
  for (const char* name : {"t", "u"}) {
    auto table = db_.GetTable(name);
    ASSERT_TRUE(table.ok());
    ExpectSameRows(RowsOf(table.value()->rows), Stored(name), name);
  }
  // Mixed columns: ints in a double column (the first cell included), and
  // an int in a string column, as MIN over no rows yields.
  const std::vector<Row> rows = {
      {Value(kBigInt + 1), Value("ab"), Value(int64_t{7})},
      {Value(0.5), Value(int64_t{0}), Value(int64_t{-1})},
      {Value(int64_t{3}), Value(""), Value(kBigInt + 1)},
      {Value(3.0), Value("3"), Value(int64_t{0})}};
  const Table table = Table::FromRows({{"d", ColumnType::kDouble},
                                       {"s", ColumnType::kString},
                                       {"i", ColumnType::kInt64}},
                                      rows);
  ExpectSameRows(RowsOf(table.rows), rows, "mixed columns");
  uint64_t bytes = 0;
  for (const Row& row : rows) {
    for (const Value& v : row) bytes += v.ByteSize();
  }
  EXPECT_EQ(table.ByteSize(), bytes);
  EXPECT_TRUE(table.column(0).mixed());
  EXPECT_TRUE(table.column(1).mixed());
  EXPECT_FALSE(table.column(2).mixed());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OperatorSemanticsP,
                         ::testing::Values(41, 42, 43));

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
