// Quickstart: the paper's Fig. 2 example, end to end.
//
// Builds the user_memo/user_action schema, loads synthetic rows, parses
// the running-example query, extracts its subqueries, materializes the
// join subquery (s3) as a view, rewrites the query to use it, and shows
// the cost saving.
//
//   ./example_quickstart

#include <cstdio>

#include "engine/database.h"
#include "util/logging.h"
#include "engine/executor.h"
#include "engine/rewriter.h"
#include "engine/view_store.h"
#include "plan/builder.h"
#include "subquery/extractor.h"
#include "util/random.h"

using namespace autoview;

int main() {
  // 1. Schema + synthetic data.
  Database db;
  Rng rng(7);
  std::vector<Row> memo_rows, action_rows;
  for (int i = 0; i < 2000; ++i) {
    memo_rows.push_back({Value(int64_t{i % 150}),
                         Value("memo" + std::to_string(i % 9)),
                         Value(i % 3 == 0 ? "1010" : "1011"),
                         Value(i % 5 < 2 ? "pen" : "book")});
  }
  for (int i = 0; i < 3000; ++i) {
    action_rows.push_back({Value(int64_t{i % 170}),
                           Value("act" + std::to_string(i % 6)),
                           Value(int64_t{i % 4}),
                           Value(i % 3 == 0 ? "1010" : "1012")});
  }
  AV_CHECK(db.AddTable(TableSchema("user_memo",
                                   {{"user_id", ColumnType::kInt64},
                                    {"memo", ColumnType::kString},
                                    {"dt", ColumnType::kString},
                                    {"memo_type", ColumnType::kString}}),
                       std::move(memo_rows))
               .ok());
  AV_CHECK(db.AddTable(TableSchema("user_action",
                                   {{"user_id", ColumnType::kInt64},
                                    {"action", ColumnType::kString},
                                    {"type", ColumnType::kInt64},
                                    {"dt", ColumnType::kString}}),
                       std::move(action_rows))
               .ok());
  AV_CHECK(db.ComputeAllStats().ok());

  // 2. Parse + plan the Fig. 2 query.
  const std::string sql =
      "select t1.user_id, count(*) as cnt from ("
      "select user_id, memo from user_memo "
      "where dt = '1010' and memo_type = 'pen') t1 "
      "inner join (select user_id, action from user_action "
      "where type = 1 and dt = '1010') t2 "
      "on t1.user_id = t2.user_id group by t1.user_id";
  PlanBuilder builder(&db.catalog());
  auto plan = builder.BuildFromSql(sql);
  AV_CHECK(plan.ok());
  std::printf("Logical plan (Fig. 2 style):\n%s\n",
              plan.value()->ToString().c_str());

  // 3. Extract subqueries (s1, s2, s3 of the paper).
  SubqueryExtractor extractor;
  auto subqueries = extractor.Extract(plan.value());
  std::printf("Extracted %zu subqueries; s3 (the join):\n%s\n",
              subqueries.size(), subqueries[0]->ToString().c_str());

  // 4. Execute the raw query.
  Executor exec(&db);
  auto raw = exec.Execute(*plan.value());
  AV_CHECK(raw.ok());
  Pricing pricing;
  std::printf("Raw execution: %zu result rows, cost %.4e$\n",
              raw.value().table.num_rows(),
              pricing.QueryCost(raw.value().cost));

  // 5. Materialize s3 and rewrite.
  MaterializedViewStore store(&db);
  auto view = store.Materialize(subqueries[0], exec);
  AV_CHECK(view.ok());
  std::printf("Materialized view %s: %zu bytes, build cost %.4e$\n",
              view.value()->table_name.c_str(),
              static_cast<size_t>(view.value()->byte_size),
              pricing.QueryCost(view.value()->build_cost));

  Rewriter rewriter(&db.catalog());
  auto rewritten = rewriter.RewriteServing(plan.value(), &store);
  AV_CHECK(rewritten.ok() && rewritten.value().num_substitutions == 1);
  std::printf("Rewritten plan:\n%s\n",
              rewritten.value().plan->ToString().c_str());

  // 6. Execute the rewritten query (its view stays pinned until
  // `rewritten` goes away) and compare.
  auto fast = exec.Execute(*rewritten.value().plan);
  AV_CHECK(fast.ok());
  AV_CHECK(TablesEqualUnordered(raw.value().table, fast.value().table));
  const double before = pricing.QueryCost(raw.value().cost);
  const double after = pricing.QueryCost(fast.value().cost);
  std::printf(
      "Rewritten execution: cost %.4e$ (identical results verified)\n"
      "Benefit B(q,v) = %.4e$ (%.1f%% saved)\n",
      after, before - after, 100.0 * (before - after) / before);
  return 0;
}
