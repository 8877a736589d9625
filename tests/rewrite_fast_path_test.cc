// Serving fast path: the indexed single-walk rewrite must be
// EXPECT_EQ-identical to the sequential per-view oracle
// (rewrite_oracle.h) across
// seeds x view counts x generations (including nested and
// duplicate-subtree matches), the generation-keyed rewrite cache must
// hit/miss/invalidate exactly per its contract (including self-healing
// after an eviction invalidates a cached entry's pins), the whole
// RewriteServing path must stay correct under a concurrent PinLive /
// swap hammer, and a serving walk that keeps losing the pin race must
// degrade to the base-table plan.

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/executor.h"
#include "engine/rewriter.h"
#include "engine/view_store.h"
#include "plan/builder.h"
#include "plan/canonical.h"
#include "rewrite_oracle.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/strings.h"

namespace autoview {
namespace {

/// Fixture loading the paper's Fig. 2 schema with synthetic rows, plus
/// a parameterized query family whose subtrees serve as view candidates.
class RewriteFastPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
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

  /// The Fig. 2 query shape with parameterized filter constants: its
  /// join subtree and both filter-project legs are view candidates.
  PlanNodePtr Fig2Query(const std::string& dt, const std::string& memo_type,
                        int type) {
    return MustBuild(StrFormat(
        "select t1.user_id, count(*) as cnt from ("
        "select user_id, memo from user_memo "
        "where dt = '%s' and memo_type = '%s') t1 "
        "inner join (select user_id, action from user_action "
        "where type = %d and dt = '%s') t2 "
        "on t1.user_id = t2.user_id group by t1.user_id",
        dt.c_str(), memo_type.c_str(), type, dt.c_str()));
  }

  /// The query family for the oracle-equivalence sweep, plus every
  /// distinct view-candidate subtree of it (join subtrees and both
  /// legs of each Fig. 2 instance, and a few standalone filters).
  void BuildFamily(std::vector<PlanNodePtr>* queries,
                   std::vector<PlanNodePtr>* candidates) {
    for (const char* dt : {"1010", "1011"}) {
      for (int type : {0, 1}) {
        PlanNodePtr q = Fig2Query(dt, "pen", type);
        ASSERT_NE(q, nullptr);
        queries->push_back(q);
        candidates->push_back(q->child(0));               // join subtree
        candidates->push_back(q->child(0)->child(0));     // memo leg
        candidates->push_back(q->child(0)->child(1));     // action leg
      }
    }
    queries->push_back(MustBuild(
        "SELECT user_id, action FROM user_action WHERE type = 2"));
    candidates->push_back(queries->back());
    queries->push_back(MustBuild("SELECT * FROM user_memo"));
  }

  ExecResult MustExecute(const PlanNodePtr& plan) {
    Executor exec(&db_);
    auto r = exec.Execute(*plan);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : ExecResult{};
  }

  /// Asserts the indexed walk produces exactly the oracle's plan (same
  /// ToString, same Equals, same substitution count) for `query` given
  /// the store's current live set.
  void ExpectIndexedMatchesOracle(const Rewriter& rewriter,
                                  MaterializedViewStore* store,
                                  const PlanNodePtr& query) {
    ViewSetSnapshot pinned = store->PinLive();
    size_t seq_subs = 0;
    auto seq = testing::OracleRewriteAll(db_.catalog(), query, pinned.views(),
                                         &seq_subs);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();

    size_t idx_subs = 0;
    std::vector<int64_t> used_ids;
    auto idx = rewriter.RewriteAllIndexed(query, store->view_index(),
                                          &idx_subs, &used_ids);
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();

    EXPECT_EQ(seq_subs, idx_subs);
    EXPECT_TRUE(seq.value()->Equals(*idx.value()));
    EXPECT_EQ(seq.value()->ToString(), idx.value()->ToString());
    // The reported ids are exactly the views whose backing tables the
    // rewritten plan scans: pinning them must succeed and be ascending.
    for (size_t i = 1; i < used_ids.size(); ++i) {
      EXPECT_LT(used_ids[i - 1], used_ids[i]);
    }
    auto pins = store->PinViews(used_ids);
    ASSERT_TRUE(pins.ok()) << pins.status().ToString();
    EXPECT_EQ(pins.value().views().size(), used_ids.size());
  }

  Database db_;
};

TEST_F(RewriteFastPathTest, IndexedMatchesOracleAcrossSeedsAndGenerations) {
  std::vector<PlanNodePtr> queries;
  std::vector<PlanNodePtr> candidates;
  BuildFamily(&queries, &candidates);
  ASSERT_FALSE(queries.empty());
  ASSERT_FALSE(candidates.empty());

  Executor exec(&db_);
  Rewriter rewriter(&db_.catalog());
  for (uint64_t seed : {1u, 7u, 23u}) {
    for (size_t view_count : {size_t{1}, size_t{4}, candidates.size()}) {
      MaterializedViewStore store(&db_, ViewStoreOptions{});
      // A seed-shuffled subset of the candidates becomes generation 1.
      std::vector<PlanNodePtr> pool = candidates;
      Rng rng(Rng::StreamSeed(seed, view_count));
      rng.Shuffle(&pool);
      size_t installed = 0;
      for (const PlanNodePtr& cand : pool) {
        if (installed >= view_count) break;
        // Duplicate canonical keys in the pool fail AlreadyExists; the
        // subset is whatever distinct prefix fits.
        if (store.Materialize(cand, exec).ok()) ++installed;
      }
      ASSERT_GT(installed, 0u);
      for (const PlanNodePtr& query : queries) {
        ExpectIndexedMatchesOracle(rewriter, &store, query);
      }

      // Generation swap to a different shuffled subset: the index must
      // track retirements and fresh installs identically.
      uint64_t staged = store.BeginSwap();
      rng.Shuffle(&pool);
      MaterializeOptions mopts;
      mopts.generation = staged;
      installed = 0;
      for (const PlanNodePtr& cand : pool) {
        if (installed >= view_count) break;
        if (store.Materialize(cand, exec, mopts).ok()) ++installed;
      }
      ASSERT_TRUE(store.CommitSwap(staged).ok());
      for (const PlanNodePtr& query : queries) {
        ExpectIndexedMatchesOracle(rewriter, &store, query);
      }
      // Stores share db_: drop this store's backing tables so the next
      // configuration's id counter cannot collide with leftovers.
      ASSERT_TRUE(store.Clear().ok());
    }
  }
}

TEST_F(RewriteFastPathTest, IndexedReplaysNestedMatchOrder) {
  Executor exec(&db_);
  Rewriter rewriter(&db_.catalog());
  PlanNodePtr query = Fig2Query("1010", "pen", 1);

  // Inner leg first (lower id): the oracle substitutes the leg, which
  // destroys the outer join subtree's key before the outer view's walk.
  {
    MaterializedViewStore store(&db_, ViewStoreOptions{});
    ASSERT_TRUE(store.Materialize(query->child(0)->child(0), exec).ok());
    ASSERT_TRUE(store.Materialize(query->child(0), exec).ok());
    ExpectIndexedMatchesOracle(rewriter, &store, query);
    ASSERT_TRUE(store.Clear().ok());
  }
  // Outer subtree first (lower id): the oracle substitutes the whole
  // join, hiding the inner leg from the later view.
  {
    MaterializedViewStore store(&db_, ViewStoreOptions{});
    ASSERT_TRUE(store.Materialize(query->child(0), exec).ok());
    ASSERT_TRUE(store.Materialize(query->child(0)->child(0), exec).ok());
    ExpectIndexedMatchesOracle(rewriter, &store, query);
    ASSERT_TRUE(store.Clear().ok());
  }
}

TEST_F(RewriteFastPathTest, IndexedRewritesDuplicateSubtrees) {
  // The same canonical subtree appears twice in one plan: both
  // occurrences substitute, but the distinct-view count is 1.
  PlanNodePtr query = MustBuild(
      "select a.user_id from ("
      "select user_id, memo from user_memo where dt = '1010') a "
      "inner join (select user_id, memo from user_memo where dt = '1010') b "
      "on a.user_id = b.user_id");
  ASSERT_NE(query, nullptr);
  Executor exec(&db_);
  MaterializedViewStore store(&db_, ViewStoreOptions{});
  ASSERT_TRUE(store.Materialize(query->child(0), exec).ok());

  Rewriter rewriter(&db_.catalog());
  ExpectIndexedMatchesOracle(rewriter, &store, query);
  size_t subs = 0;
  std::vector<int64_t> ids;
  auto idx = rewriter.RewriteAllIndexed(query, store.view_index(), &subs,
                                        &ids);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(subs, 1u);
  ASSERT_EQ(ids.size(), 1u);
  auto original = MustExecute(query);
  auto after = MustExecute(idx.value());
  EXPECT_TRUE(TablesEqualUnordered(original.table, after.table));
}

TEST_F(RewriteFastPathTest, ServingCacheHitsAndInvalidatesOnSwap) {
  GlobalRewriteCache().Reset();
  Executor exec(&db_);
  MaterializedViewStore store(&db_, ViewStoreOptions{});
  PlanNodePtr query = Fig2Query("1010", "pen", 1);
  ASSERT_TRUE(store.Materialize(query->child(0), exec).ok());

  Rewriter rewriter(&db_.catalog());
  auto original = MustExecute(query);

  // First request misses and populates; the result substitutes the view.
  auto first = rewriter.RewriteServing(query, &store);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().cache_hit);
  EXPECT_EQ(first.value().num_substitutions, 1u);
  EXPECT_EQ(first.value().pins.views().size(), 1u);
  auto snap = GlobalRewriteCache().Read();
  EXPECT_EQ(snap.hits, 0u);
  EXPECT_EQ(snap.misses, 1u);
  EXPECT_EQ(snap.inserts, 1u);

  // Second request hits; the pinned plan matches the first bit-for-bit
  // and still answers the query correctly.
  auto second = rewriter.RewriteServing(query, &store);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cache_hit);
  EXPECT_EQ(second.value().plan->ToString(), first.value().plan->ToString());
  snap = GlobalRewriteCache().Read();
  EXPECT_EQ(snap.hits, 1u);
  EXPECT_EQ(snap.misses, 1u);
  auto after = MustExecute(second.value().plan);
  EXPECT_TRUE(TablesEqualUnordered(original.table, after.table));

  // A generation swap invalidates wholesale: the next request is a miss
  // against the new view set (which no longer covers the join subtree).
  uint64_t staged = store.BeginSwap();
  MaterializeOptions mopts;
  mopts.generation = staged;
  ASSERT_TRUE(store.Materialize(query->child(0)->child(1), exec, mopts).ok());
  ASSERT_TRUE(store.CommitSwap(staged).ok());
  EXPECT_EQ(store.rewrite_cache().size(), 0u);
  snap = GlobalRewriteCache().Read();
  EXPECT_EQ(snap.invalidation_sweeps, 1u);
  EXPECT_EQ(snap.invalidated_entries, 1u);

  auto third = rewriter.RewriteServing(query, &store);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third.value().cache_hit);
  EXPECT_EQ(third.value().num_substitutions, 1u);  // the action leg
  snap = GlobalRewriteCache().Read();
  EXPECT_EQ(snap.misses, 2u);
  auto swapped = MustExecute(third.value().plan);
  EXPECT_TRUE(TablesEqualUnordered(original.table, swapped.table));
}

TEST_F(RewriteFastPathTest, ServingKeepsNearbyFloatLiteralsApart) {
  // Each pair differs past %g's six significant digits. The serving path
  // caches rewrites and matches views by canonical key, so a key that
  // rounded the literal would hand the second query the first one's
  // plan or view.
  std::vector<Row> rows;
  const double values[] = {1.0,         1.0000001,   1.00000015,
                           1.0000002,   123456789.0, 123456789.25};
  for (size_t i = 0; i < std::size(values); ++i) {
    rows.push_back({Value(static_cast<int64_t>(i)), Value(values[i])});
  }
  ASSERT_TRUE(db_.AddTable(TableSchema("readings",
                                       {{"id", ColumnType::kInt64},
                                        {"v", ColumnType::kDouble}}),
                           std::move(rows))
                  .ok());
  ASSERT_TRUE(db_.ComputeAllStats().ok());

  Executor exec(&db_);
  MaterializedViewStore store(&db_, ViewStoreOptions{});
  Rewriter rewriter(&db_.catalog());
  const std::pair<const char*, const char*> pairs[] = {
      {"1.0000001", "1.0000002"}, {"123456789.0", "123456789.5"}};
  for (const auto& [x, y] : pairs) {
    PlanNodePtr a =
        MustBuild(std::string("SELECT id, v FROM readings WHERE v < ") + x);
    PlanNodePtr b =
        MustBuild(std::string("SELECT id, v FROM readings WHERE v < ") + y);
    ASSERT_TRUE(a && b);
    ASSERT_NE(MustExecute(a).table.num_rows(), MustExecute(b).table.num_rows());

    const auto view = store.Materialize(a, exec);  // only `a` has a view
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    for (const PlanNodePtr& query : {a, b, a, b}) {
      auto serving = rewriter.RewriteServing(query, &store);
      ASSERT_TRUE(serving.ok()) << serving.status().ToString();
      EXPECT_EQ(serving.value().num_substitutions, query == a ? 1u : 0u);
      EXPECT_TRUE(TablesEqualUnordered(MustExecute(query).table,
                                       MustExecute(serving.value().plan).table))
          << query->ToString();
    }
  }
}

TEST_F(RewriteFastPathTest, ServingHealsCacheAfterEviction) {
  GlobalRewriteCache().Reset();
  Executor exec(&db_);
  MaterializedViewStore store(&db_, ViewStoreOptions{});
  PlanNodePtr query = Fig2Query("1010", "pen", 1);
  auto view = store.Materialize(query->child(0), exec);
  ASSERT_TRUE(view.ok());
  int64_t view_id = view.value()->id;

  Rewriter rewriter(&db_.catalog());
  auto first = rewriter.RewriteServing(query, &store);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().num_substitutions, 1u);
  first.value().pins.Release();

  // Same-generation drop: the cached entry's pins can no longer be
  // taken. The next request must detect that (pin failure), erase the
  // entry, re-walk, and come back with the unrewritten plan — never a
  // plan scanning the dropped table.
  ASSERT_TRUE(store.Drop(view_id).ok());
  auto healed = rewriter.RewriteServing(query, &store);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_FALSE(healed.value().cache_hit);
  EXPECT_EQ(healed.value().num_substitutions, 0u);
  EXPECT_TRUE(healed.value().plan->Equals(*query));
  auto snap = GlobalRewriteCache().Read();
  EXPECT_EQ(snap.pin_failures, 1u);
  auto original = MustExecute(query);
  auto after = MustExecute(healed.value().plan);
  EXPECT_TRUE(TablesEqualUnordered(original.table, after.table));
}

TEST_F(RewriteFastPathTest, ServingDegradesToBaseTablesWhenPinsKeepFailing) {
  GlobalRewriteCache().Reset();
  Executor exec(&db_);
  MaterializedViewStore store(&db_, ViewStoreOptions{});
  PlanNodePtr query = Fig2Query("1010", "pen", 1);
  ASSERT_TRUE(store.Materialize(query->child(0), exec).ok());
  Rewriter rewriter(&db_.catalog());
  const uint64_t fallbacks_before = GlobalRobustness().Read().rewrite_fallbacks;

  // Every indexed walk loses its pin race: the request must come back
  // as the base-table plan with nothing pinned, not as an error.
  ASSERT_TRUE(Failpoints::Instance().Configure("rewriter.pin=error").ok());
  auto serving = rewriter.RewriteServing(query, &store);
  const uint64_t pin_fires = Failpoints::Instance().hits("rewriter.pin");
  Failpoints::Instance().Clear();
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();
  EXPECT_EQ(pin_fires, 3u);  // one per indexed attempt

  EXPECT_TRUE(serving.value().plan->Equals(*query));
  EXPECT_EQ(serving.value().num_substitutions, 0u);
  EXPECT_FALSE(serving.value().cache_hit);
  EXPECT_TRUE(serving.value().pins.views().empty());
  EXPECT_EQ(GlobalRobustness().Read().rewrite_fallbacks, fallbacks_before + 1);
  EXPECT_EQ(store.rewrite_cache().size(), 0u);  // a fallback is not cached
  auto original = MustExecute(query);
  auto served = MustExecute(serving.value().plan);
  EXPECT_TRUE(TablesEqualUnordered(original.table, served.table));

  // Disarmed, the same request substitutes the view again.
  auto healthy = rewriter.RewriteServing(query, &store);
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy.value().num_substitutions, 1u);
  EXPECT_EQ(healthy.value().pins.views().size(), 1u);
}

TEST_F(RewriteFastPathTest, ServingSurvivesConcurrentPinAndSwapHammer) {
  GlobalRewriteCache().Reset();
  Executor exec(&db_);
  MaterializedViewStore store(&db_, ViewStoreOptions{});
  PlanNodePtr query = Fig2Query("1010", "pen", 1);
  std::vector<PlanNodePtr> cands = {query->child(0), query->child(0)->child(0),
                                    query->child(0)->child(1)};
  ASSERT_TRUE(store.Materialize(cands[0], exec).ok());
  auto original = MustExecute(query);

  Rewriter rewriter(&db_.catalog());
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // Servers: RewriteServing + execute-under-pin, checking every answer.
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&]() {
      Executor local_exec(&db_);
      while (!stop.load(std::memory_order_relaxed)) {
        auto serving = rewriter.RewriteServing(query, &store);
        if (!serving.ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto result = local_exec.Execute(*serving.value().plan);
        if (!result.ok() ||
            !TablesEqualUnordered(original.table, result.value().table)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // Pin hammer: full-store snapshots taken and released continuously.
  threads.emplace_back([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      ViewSetSnapshot snapshot = store.PinLive();
      snapshot.Release();
    }
  });

  // Main thread: generation swaps rotating through view subsets.
  for (int round = 0; round < 20; ++round) {
    uint64_t staged = store.BeginSwap();
    MaterializeOptions mopts;
    mopts.generation = staged;
    ASSERT_TRUE(
        store.Materialize(cands[round % cands.size()], exec, mopts).ok());
    ASSERT_TRUE(store.CommitSwap(staged).ok());
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace autoview
