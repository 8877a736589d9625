// Tests for the online advisor (src/core/advisor.*) — every layer's
// incremental path is checked against its batch oracle, per DESIGN.md
// §12:
//
//  1. Subquery layer: ClustererSession ingest/retire vs the oracle
//     analysis of the live window (tests/analysis_oracle.h), under a
//     constant and a non-constant cost.
//  2. Index layer: after arbitrary ingest/retire/window-churn mutation
//     sequences, the incrementally maintained MvsProblemIndex is
//     EXPECT_EQ-identical to an index rebuilt from scratch over the
//     advisor's dense oracle instance — across seeds and workload
//     shapes.
//  3. Selection layer: warm-started ReselectDelta never returns below
//     the warm point's own utility under the mutated index, and the
//     whole advisor loop is deterministic under a ManualClock.
//  4. Engine layer: re-selection hot-swaps the store atomically while
//     concurrent readers serve from pinned snapshots (run under tsan by
//     scripts/run_sanitizer_suites.sh).
//  5. End to end: a drifting query stream drives trigger policies,
//     re-selections, and generation swaps with zero failures.
//  6. Serving: concurrent clients ingest, pin, rewrite and execute
//     against the live advisor while it re-selects and hot-swaps (run
//     under tsan).

#include "core/advisor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis_oracle.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/rewriter.h"
#include "engine/view_store.h"
#include "ilp/problem.h"
#include "ilp/problem_index.h"
#include "plan/builder.h"
#include "plan/canonical.h"
#include "select/iterview.h"
#include "subquery/clusterer.h"
#include "util/clock.h"
#include "util/random.h"
#include "workload/generator.h"

namespace autoview {
namespace {

using testing::BuildWorkloadPlans;
using testing::ExpectAnalysesEquivalent;
using testing::OracleAnalyze;

// ---------------------------------------------------------------------
// 1. Subquery layer: session mutations vs the batch oracle.

TEST(ClustererSessionTest, IngestRetireMatchesOracleAnalysis) {
  for (const uint64_t seed : {11u, 12u}) {
    CloudWorkloadSpec spec = Wk1Spec(0.3);
    spec.seed = seed;
    const GeneratedWorkload workload = GenerateCloudWorkload(spec);
    const auto plans = BuildWorkloadPlans(workload);

    SubqueryClusterer::Options opts;
    const auto unit_cost = [](const PlanNode&) { return 1.0; };
    ClustererSession session(opts, unit_cost,
                             [&plans](size_t qi) { return plans[qi]; });

    // Ingest everything, then retire a third (every third query) — the
    // surviving window must match the oracle over exactly the surviving
    // plans in id order.
    for (size_t qi = 0; qi < plans.size(); ++qi) {
      ASSERT_TRUE(session.IngestQuery(qi, plans[qi]).ok());
    }
    std::vector<PlanNodePtr> live;
    for (size_t qi = 0; qi < plans.size(); ++qi) {
      if (qi % 3 == 0) {
        ASSERT_TRUE(session.RetireQuery(qi).ok());
      } else {
        live.push_back(plans[qi]);
      }
    }
    ASSERT_EQ(session.LiveQueryIds().size(), live.size());

    ExpectAnalysesEquivalent(OracleAnalyze(live, opts, unit_cost),
                             session.Snapshot());
    EXPECT_GT(session.churn_events(), 0u);
  }
}

// A cost that differs between members of one cluster makes the argmin a
// real choice. The session keeps no member plan, so every candidate plan
// it reports is re-derived from `query_fn`: after a cluster crosses
// min_sharing with its argmin in an older query, and after the argmin
// member's query retires.
TEST(ClustererSessionTest, RederivesArgminPlansUnderNonConstantCost) {
  CloudWorkloadSpec spec = Wk1Spec(0.3);
  spec.seed = 13;
  const GeneratedWorkload workload = GenerateCloudWorkload(spec);
  const auto plans = BuildWorkloadPlans(workload);
  std::unordered_map<const PlanNode*, size_t> owner;
  for (size_t qi = 0; qi < plans.size(); ++qi) {
    for (const PlanNodePtr& node : plans[qi]->Subtrees()) {
      owner.emplace(node.get(), qi);
    }
  }
  // Operator count plus a per-query fraction: pure, and not monotone in
  // arrival order.
  const auto cost = [&owner](const PlanNode& plan) {
    return static_cast<double>(plan.NumOperators()) +
           static_cast<double>(owner.at(&plan) * 7919 % 101) / 101.0;
  };
  const SubqueryClusterer::Options opts;
  ClustererSession session(opts, cost,
                           [&plans](size_t qi) { return plans[qi]; });

  // Crossing min_sharing: the plan is the least-cost member so far.
  std::unordered_map<std::string, const PlanNode*> best;
  size_t crossed_with_older_argmin = 0;
  for (size_t qi = 0; qi < plans.size(); ++qi) {
    ClustererSession::MutationEffects effects;
    ASSERT_TRUE(session.IngestQuery(qi, plans[qi], &effects).ok());
    for (const PlanNodePtr& sub :
         SubqueryExtractor(opts.extractor).Extract(plans[qi])) {
      const auto [it, inserted] = best.emplace(CanonicalKey(*sub), sub.get());
      if (!inserted && cost(*sub) < cost(*it->second)) it->second = sub.get();
    }
    for (const std::string& key : effects.candidates_added) {
      const auto info = session.Candidate(key);
      ASSERT_TRUE(info.has_value());
      ASSERT_NE(info->plan, nullptr);
      EXPECT_EQ(info->plan.get(), best.at(key));
      if (owner.at(info->plan.get()) < qi) ++crossed_with_older_argmin;
    }
  }
  EXPECT_GT(crossed_with_older_argmin, 0u);

  // Retiring the argmin member's query replans a cluster that stays a
  // candidate; its new plan comes from a surviving query.
  std::set<size_t> retired;
  size_t replanned = 0;
  for (const std::string& key : session.CandidateKeys()) {
    if (retired.size() == 40) break;
    const auto info = session.Candidate(key);
    if (!info.has_value()) continue;  // an earlier retire removed it
    const size_t qi = owner.at(info->plan.get());
    ClustererSession::MutationEffects effects;
    ASSERT_TRUE(session.RetireQuery(qi, &effects).ok());
    retired.insert(qi);
    const auto& out = effects.candidates_replanned;
    if (std::find(out.begin(), out.end(), key) == out.end()) continue;
    ++replanned;
    const auto after = session.Candidate(key);
    ASSERT_TRUE(after.has_value());
    ASSERT_NE(after->plan, nullptr);
    EXPECT_EQ(retired.count(owner.at(after->plan.get())), 0u);
  }
  EXPECT_GT(replanned, 0u);

  std::vector<PlanNodePtr> live;
  for (size_t qi = 0; qi < plans.size(); ++qi) {
    if (retired.count(qi) == 0) live.push_back(plans[qi]);
  }
  const WorkloadAnalysis oracle = OracleAnalyze(live, opts, cost);
  ExpectAnalysesEquivalent(oracle, session.Snapshot());
  ExpectAnalysesEquivalent(oracle,
                           testing::Analyze(SubqueryClusterer(opts, cost), live));
}

TEST(ClustererSessionTest, RetireEverythingLeavesEmptySession) {
  const GeneratedWorkload workload = GenerateCloudWorkload(Wk1Spec(0.2));
  const auto plans = BuildWorkloadPlans(workload);
  ClustererSession session({}, [](const PlanNode&) { return 1.0; },
                           [&plans](size_t qi) { return plans[qi]; });
  for (size_t qi = 0; qi < plans.size(); ++qi) {
    ASSERT_TRUE(session.IngestQuery(qi, plans[qi]).ok());
  }
  for (size_t qi = 0; qi < plans.size(); ++qi) {
    ASSERT_TRUE(session.RetireQuery(qi).ok());
  }
  EXPECT_EQ(session.num_live_queries(), 0u);
  EXPECT_TRUE(session.CandidateKeys().empty());
  // Unknown ids are rejected, not ignored.
  EXPECT_FALSE(session.RetireQuery(0).ok());
  EXPECT_FALSE(session.RetireQuery(99999).ok());
}

// ---------------------------------------------------------------------
// Shared fixture plumbing: an advisor over a generated workload.

struct AdvisorRig {
  GeneratedWorkload workload;
  std::unique_ptr<MaterializedViewStore> store;
  std::unique_ptr<OnlineAdvisor> advisor;

  AdvisorRig(CloudWorkloadSpec spec, OnlineAdvisorOptions options) {
    workload = GenerateCloudWorkload(spec);
    store = std::make_unique<MaterializedViewStore>(workload.db.get(),
                                                    ViewStoreOptions{});
    advisor = std::make_unique<OnlineAdvisor>(workload.db.get(), store.get(),
                                              options);
  }
};

/// The index-layer bit-identity oracle: the incrementally mutated index
/// must equal an index rebuilt from scratch over the dense instance,
/// whose overlap flags come from the all-pairs CanonicalPlansOverlap
/// scan. Returns the oracle's count of overlapping candidate pairs.
size_t ExpectIndexMatchesOracle(const OnlineAdvisor& advisor) {
  const Result<MvsProblem> dense = advisor.DenseOracleProblem();
  EXPECT_TRUE(dense.ok()) << dense.status().ToString();
  if (!dense.ok()) return 0;
  EXPECT_EQ(MvsProblemIndex(dense.value()), advisor.CopyIndex());
  size_t pairs = 0;
  const auto& overlap = dense.value().overlap;
  for (size_t j = 0; j < overlap.size(); ++j) {
    for (size_t k = j + 1; k < overlap.size(); ++k) pairs += overlap[j][k];
  }
  return pairs;
}

// ---------------------------------------------------------------------
// 2. Index layer: mutation sequences vs rebuilt-from-scratch.

TEST(AdvisorIndexTest, IngestMutationsMatchRebuiltIndex) {
  for (const uint64_t seed : {21u, 22u}) {
    for (const bool wk2 : {false, true}) {
      CloudWorkloadSpec spec = wk2 ? Wk2Spec(0.2) : Wk1Spec(0.25);
      spec.seed = seed;
      OnlineAdvisorOptions options;
      options.epoch_queries = 1u << 30;  // never auto-reselect
      options.window_queries = 0;        // no window retires either
      AdvisorRig rig(spec, options);

      for (size_t qi = 0; qi < rig.workload.sql.size(); ++qi) {
        ASSERT_TRUE(rig.advisor->IngestSql(rig.workload.sql[qi]).ok());
        // Checking every prefix is O(n) rebuilds; every 7th keeps the
        // test fast while still covering add/replan column churn.
        if (qi % 7 == 0) ExpectIndexMatchesOracle(*rig.advisor);
      }
      ExpectIndexMatchesOracle(*rig.advisor);
      const OnlineAdvisorStats stats = rig.advisor->stats();
      EXPECT_EQ(stats.ingested, rig.workload.sql.size());
      EXPECT_EQ(stats.live_queries, rig.workload.sql.size());
      EXPECT_GT(stats.candidate_views, 0u);
    }
  }
}

TEST(AdvisorIndexTest, RetireMutationsMatchRebuiltIndex) {
  OnlineAdvisorOptions options;
  options.epoch_queries = 1u << 30;
  options.window_queries = 0;
  AdvisorRig rig(Wk1Spec(0.25), options);

  std::vector<uint64_t> ids;
  for (const std::string& sql : rig.workload.sql) {
    const auto id = rig.advisor->IngestSql(sql);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  // Retire in a scrambled-but-deterministic order: evens descending,
  // then odds ascending — exercises middle-row removals and column
  // drop/replan on both ends of the id space.
  std::vector<uint64_t> order;
  for (size_t n = ids.size(); n-- > 0;) {
    if (n % 2 == 0) order.push_back(ids[n]);
  }
  for (size_t n = 0; n < ids.size(); ++n) {
    if (n % 2 == 1) order.push_back(ids[n]);
  }
  size_t retired = 0;
  for (const uint64_t id : order) {
    ASSERT_TRUE(rig.advisor->RetireQuery(id).ok());
    if (++retired % 7 == 0) ExpectIndexMatchesOracle(*rig.advisor);
  }
  ExpectIndexMatchesOracle(*rig.advisor);
  const OnlineAdvisorStats stats = rig.advisor->stats();
  EXPECT_EQ(stats.live_queries, 0u);
  EXPECT_EQ(stats.candidate_views, 0u);
  EXPECT_EQ(stats.retired, ids.size());
  EXPECT_FALSE(rig.advisor->RetireQuery(ids[0]).ok());  // already gone
}

TEST(AdvisorIndexTest, SlidingWindowChurnMatchesRebuiltIndex) {
  OnlineAdvisorOptions options;
  options.epoch_queries = 1u << 30;
  options.window_queries = 12;  // well below the workload size
  AdvisorRig rig(Wk1Spec(0.25), options);

  for (size_t qi = 0; qi < rig.workload.sql.size(); ++qi) {
    ASSERT_TRUE(rig.advisor->IngestSql(rig.workload.sql[qi]).ok());
    EXPECT_LE(rig.advisor->stats().live_queries, options.window_queries);
    if (qi % 5 == 0) ExpectIndexMatchesOracle(*rig.advisor);
  }
  ExpectIndexMatchesOracle(*rig.advisor);
  const OnlineAdvisorStats stats = rig.advisor->stats();
  EXPECT_EQ(stats.live_queries, options.window_queries);
  EXPECT_EQ(stats.retired, stats.ingested - options.window_queries);
}

/// Fig. 2's two tables with a few rows each, statistics computed.
std::unique_ptr<Database> Fig2Database() {
  auto db = std::make_unique<Database>();
  std::vector<Row> memo;
  std::vector<Row> action;
  for (int64_t i = 0; i < 40; ++i) {
    memo.push_back({Value(i % 10), Value(i % 3 == 0 ? "pen" : "ink"),
                    Value(i % 2 == 0 ? "1010" : "1011"),
                    Value(i % 4 == 0 ? "book" : "pen")});
    action.push_back({Value(i % 10), Value(i % 5 == 0 ? "buy" : "view"),
                      Value(i % 3), Value(i % 2 == 0 ? "1010" : "1011")});
  }
  EXPECT_TRUE(db->AddTable(TableSchema("user_memo",
                                       {{"user_id", ColumnType::kInt64},
                                        {"memo", ColumnType::kString},
                                        {"dt", ColumnType::kString},
                                        {"memo_type", ColumnType::kString}}),
                           std::move(memo))
                  .ok());
  EXPECT_TRUE(db->AddTable(TableSchema("user_action",
                                       {{"user_id", ColumnType::kInt64},
                                        {"action", ColumnType::kString},
                                        {"type", ColumnType::kInt64},
                                        {"dt", ColumnType::kString}}),
                           std::move(action))
                  .ok());
  EXPECT_TRUE(db->ComputeAllStats().ok());
  return db;
}

TEST(AdvisorIndexTest, OverlapAdjacencyMatchesAllPairsOracle) {
  // s1 and s2 are Fig. 2's filtered projections and s3 their join, so
  // s3 contains s1 and s2 (Fig. 2's conflict); "s1 join scan" contains
  // s1 alone, and two queries share nothing.
  const std::string s1 =
      "(select user_id, memo from user_memo "
      "where dt = '1010' and memo_type = 'pen') t1";
  const std::string s2 =
      "(select user_id, action from user_action "
      "where type = 1 and dt = '1010') t2";
  const std::string fig2 = "select t1.user_id, count(*) as cnt from " + s1 +
                           " inner join " + s2 +
                           " on t1.user_id = t2.user_id group by t1.user_id";
  const std::string by_memo = "select t1.memo, count(*) as c from " + s1 +
                              " inner join " + s2 +
                              " on t1.user_id = t2.user_id group by t1.memo";
  const std::string s1_scan = "select t1.user_id from " + s1 +
                              " inner join user_action a "
                              "on t1.user_id = a.user_id";
  const std::string s2_book =
      "select t2.user_id, count(*) as n from " + s2 +
      " inner join (select user_id, memo from user_memo "
      "where memo_type = 'book') t3 on t2.user_id = t3.user_id "
      "group by t2.user_id";
  const std::string other_action =
      "select user_id, count(*) as c from user_action where type = 2 "
      "group by user_id";
  const std::string other_memo =
      "select memo, count(*) as c from user_memo where dt = '1011' "
      "group by memo";
  const std::vector<std::string> stream = {
      fig2,    by_memo, s1_scan, fig2,       s2_book,    by_memo,
      s1_scan, fig2,    s2_book, other_memo, other_action, by_memo,
      fig2,    s1_scan, fig2,    s2_book,    other_memo};

  const std::unique_ptr<Database> db = Fig2Database();
  OnlineAdvisorOptions options;
  options.epoch_queries = 1u << 30;  // index mutations only, no swaps
  options.window_queries = 3;
  MaterializedViewStore store(db.get(), ViewStoreOptions{});
  OnlineAdvisor advisor(db.get(), &store, options);

  // A session over the same stream and window shows which candidate
  // mutations the stream drives: equal plans tie on any cost, so a
  // candidate is replanned when the query holding its member retires.
  const PlanBuilder builder(&db->catalog());
  ClustererSession mirror(options.cluster);
  ClustererSession::MutationEffects effects;
  std::vector<uint64_t> ids;
  size_t max_overlap_pairs = 0;
  const auto ingest_stream = [&](OnlineAdvisor& target, bool mirrored) {
    for (const std::string& sql : stream) {
      const Result<uint64_t> id = target.IngestSql(sql);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      max_overlap_pairs =
          std::max(max_overlap_pairs, ExpectIndexMatchesOracle(target));
      if (!mirrored) continue;
      ids.push_back(id.value());
      ASSERT_TRUE(mirror.IngestQuery(id.value(),
                                     builder.BuildFromSql(sql).value(),
                                     &effects)
                      .ok());
      if (ids.size() > options.window_queries) {
        ASSERT_TRUE(mirror
                        .RetireQuery(ids[ids.size() - 1 -
                                         options.window_queries],
                                     &effects)
                        .ok());
      }
    }
  };
  ingest_stream(advisor, /*mirrored=*/true);
  EXPECT_GT(max_overlap_pairs, 0u);
  EXPECT_GT(effects.candidates_added.size(), 0u);
  EXPECT_GT(effects.candidates_replanned.size(), 0u);
  EXPECT_GT(effects.candidates_removed.size(), 0u);

  // Retire the whole window, then re-ingest the stream: no view may
  // leave an entry behind in the subtree-key index.
  for (size_t n = ids.size() - options.window_queries; n < ids.size(); ++n) {
    ASSERT_TRUE(advisor.RetireQuery(ids[n]).ok());
    ExpectIndexMatchesOracle(advisor);
  }
  EXPECT_EQ(advisor.stats().live_queries, 0u);
  EXPECT_EQ(advisor.stats().candidate_views, 0u);
  ingest_stream(advisor, /*mirrored=*/false);

  MaterializedViewStore fresh_store(db.get(), ViewStoreOptions{});
  OnlineAdvisor fresh(db.get(), &fresh_store, options);
  ingest_stream(fresh, /*mirrored=*/false);
  EXPECT_EQ(advisor.CopyIndex(), fresh.CopyIndex());
  EXPECT_EQ(advisor.stats().candidate_views, fresh.stats().candidate_views);
}

// ---------------------------------------------------------------------
// 3. Selection layer.

TEST(AdvisorSelectTest, ReselectDeltaNeverBelowWarmPointUtility) {
  OnlineAdvisorOptions options;
  options.epoch_queries = 1u << 30;
  options.window_queries = 0;
  AdvisorRig rig(Wk1Spec(0.3), options);

  // Phase 1: ingest half the workload and cold-select on its index.
  const size_t half = rig.workload.sql.size() / 2;
  for (size_t qi = 0; qi < half; ++qi) {
    ASSERT_TRUE(rig.advisor->IngestSql(rig.workload.sql[qi]).ok());
  }
  const auto dense0 = rig.advisor->DenseOracleProblem();
  ASSERT_TRUE(dense0.ok());
  const MvsProblemIndex index0(dense0.value());

  IterViewSelector::Options sopts;
  sopts.iterations = 25;
  sopts.seed = 5;
  const auto cold = IterViewSelector(sopts).ReselectDelta(
      index0, std::vector<bool>(index0.num_views(), false));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GE(cold.value().utility, 0.0);

  // Phase 2: ingest the rest (the index mutates under the incumbent),
  // then warm-start from the phase-1 incumbent. Documented guarantee:
  // the result is never below the warm point's own utility under the
  // *new* index — for any incumbent z, aligned or not.
  for (size_t qi = half; qi < rig.workload.sql.size(); ++qi) {
    ASSERT_TRUE(rig.advisor->IngestSql(rig.workload.sql[qi]).ok());
  }
  const MvsProblemIndex index1 = rig.advisor->CopyIndex();
  ASSERT_GE(index1.num_views(), index0.num_views());
  std::vector<bool> warm_z = cold.value().z;
  warm_z.resize(index1.num_views(), false);

  const double warm_utility = YOptSolver(&index1).UtilityOf(warm_z);
  const auto warm = IterViewSelector(sopts).ReselectDelta(index1, warm_z);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_GE(warm.value().utility, warm_utility);
  EXPECT_GE(warm.value().utility, 0.0);
}

TEST(AdvisorSelectTest, ManualClockRunIsDeterministic) {
  // Two advisors fed the identical stream under ManualClocks (infinite
  // deadlines regardless of host speed) must agree on everything the
  // re-selection produced — the replayability contract of the clock
  // seam, with a nonzero budget that would race wall time otherwise.
  const ManualClock clock_a;
  const ManualClock clock_b;
  auto make_options = [](const Clock* clock) {
    OnlineAdvisorOptions options;
    options.epoch_queries = 8;
    options.window_queries = 24;
    options.select_iterations = 15;
    options.reselect_budget_ms = 5.0;
    options.clock = clock;
    return options;
  };
  AdvisorRig a(Wk1Spec(0.25), make_options(&clock_a));
  AdvisorRig b(Wk1Spec(0.25), make_options(&clock_b));

  for (const std::string& sql : a.workload.sql) {
    ASSERT_TRUE(a.advisor->IngestSql(sql).ok());
    ASSERT_TRUE(b.advisor->IngestSql(sql).ok());
  }
  const OnlineAdvisorStats sa = a.advisor->stats();
  const OnlineAdvisorStats sb = b.advisor->stats();
  EXPECT_GT(sa.reselections, 0u);
  EXPECT_EQ(sa.reselections, sb.reselections);
  EXPECT_EQ(sa.swaps_committed, sb.swaps_committed);
  EXPECT_EQ(sa.incumbent_utility, sb.incumbent_utility);
  EXPECT_FALSE(sa.last_reselect_timed_out);
  EXPECT_EQ(a.advisor->SelectedKeys(), b.advisor->SelectedKeys());
  EXPECT_TRUE(a.advisor->CopyIndex() == b.advisor->CopyIndex());
}

// ---------------------------------------------------------------------
// 4. Engine layer: hot swap under concurrent pinned serving.

TEST(AdvisorSwapTest, HotSwapIsAtomicUnderConcurrentPins) {
  OnlineAdvisorOptions options;
  options.epoch_queries = 1u << 30;  // swaps only via ForceReselect
  options.window_queries = 0;
  options.select_iterations = 10;
  AdvisorRig rig(Wk1Spec(0.25), options);

  const size_t half = rig.workload.sql.size() / 2;
  for (size_t qi = 0; qi < half; ++qi) {
    ASSERT_TRUE(rig.advisor->IngestSql(rig.workload.sql[qi]).ok());
  }
  ASSERT_TRUE(rig.advisor->ForceReselect().ok());
  ASSERT_GT(rig.store->size(), 0u);

  // Readers continuously pin the live set and touch every pinned view's
  // descriptor and key; a swap that dropped a pinned view's backing
  // state early, or published a half-committed generation, shows up
  // here (and under tsan) as a dangling read or a torn set.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> pins{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ViewSetSnapshot pin = rig.store->PinLive();
        uint64_t bytes = 0;
        for (const MaterializedView* view : pin.views()) {
          ASSERT_NE(view, nullptr);
          ASSERT_NE(view->plan, nullptr);
          ASSERT_FALSE(view->canonical_key.empty());
          bytes += view->byte_size;
        }
        EXPECT_EQ(bytes > 0, !pin.views().empty());
        pins.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: keep mutating the instance and swapping generations, once
  // the readers are pinning (a loaded host may not schedule them before
  // the writer would finish).
  while (pins.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  for (size_t qi = half; qi < rig.workload.sql.size(); ++qi) {
    ASSERT_TRUE(rig.advisor->IngestSql(rig.workload.sql[qi]).ok());
    if (qi % 8 == 0) {
      ASSERT_TRUE(rig.advisor->ForceReselect().ok());
    }
  }
  ASSERT_TRUE(rig.advisor->ForceReselect().ok());
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  const OnlineAdvisorStats stats = rig.advisor->stats();
  EXPECT_GT(pins.load(), 0u);
  EXPECT_EQ(stats.swaps_committed, stats.reselections);
  // After the last commit the store holds exactly the selected set.
  rig.store->WaitIdle();
  EXPECT_EQ(rig.store->size(), rig.advisor->SelectedKeys().size());
  for (const std::string& key : rig.advisor->SelectedKeys()) {
    ASSERT_NE(rig.store->FindByKey(key), nullptr) << key;
  }
}

// ---------------------------------------------------------------------
// 5. End to end: drift -> triggers -> re-selection -> swap.

TEST(AdvisorEndToEndTest, DriftingStreamReselectsAndSwaps) {
  OnlineAdvisorOptions options;
  options.epoch_queries = 10;
  options.window_queries = 30;
  options.select_iterations = 15;
  AdvisorRig rig(Wk1Spec(0.3), options);

  // A churn-style drift: sweep the query space front to back, then
  // replay the back half — the sliding window makes the live mix
  // rotate, so candidates appear and disappear across epochs.
  std::vector<size_t> stream;
  for (size_t qi = 0; qi < rig.workload.sql.size(); ++qi) {
    stream.push_back(qi);
  }
  for (size_t qi = rig.workload.sql.size() / 2;
       qi < rig.workload.sql.size(); ++qi) {
    stream.push_back(qi);
  }
  for (const size_t qi : stream) {
    ASSERT_TRUE(rig.advisor->IngestSql(rig.workload.sql[qi]).ok());
  }

  const OnlineAdvisorStats stats = rig.advisor->stats();
  EXPECT_EQ(stats.ingested, stream.size());
  EXPECT_EQ(stats.reselections, stream.size() / options.epoch_queries);
  EXPECT_EQ(stats.swaps_committed, stats.reselections);
  EXPECT_GT(stats.views_materialized, 0u);
  EXPECT_GT(stats.churn_events, 0u);
  EXPECT_GT(stats.incumbent_utility, 0.0);
  ExpectIndexMatchesOracle(*rig.advisor);
  rig.store->WaitIdle();
  EXPECT_EQ(rig.store->size(), rig.advisor->SelectedKeys().size());
}

TEST(AdvisorEndToEndTest, DriftScoreTriggerFiresOnChurn) {
  OnlineAdvisorOptions options;
  options.trigger = ReselectTrigger::kDriftScore;
  options.drift_churn_threshold = 6;
  options.window_queries = 20;
  options.select_iterations = 10;
  AdvisorRig rig(Wk1Spec(0.25), options);

  for (const std::string& sql : rig.workload.sql) {
    ASSERT_TRUE(rig.advisor->IngestSql(sql).ok());
  }
  const OnlineAdvisorStats stats = rig.advisor->stats();
  // The rotating window keeps generating candidate churn, so the drift
  // trigger fires repeatedly — and every firing commits its swap.
  EXPECT_GT(stats.reselections, 1u);
  EXPECT_EQ(stats.swaps_committed, stats.reselections);
  EXPECT_GE(stats.churn_events, options.drift_churn_threshold);
}

TEST(AdvisorEndToEndTest, UtilityRegressionTriggerReselects) {
  OnlineAdvisorOptions options;
  options.trigger = ReselectTrigger::kUtilityRegression;
  options.epoch_queries = 8;  // fires the initial selection
  options.utility_regression = 0.05;
  options.window_queries = 16;
  options.select_iterations = 10;
  AdvisorRig rig(Wk1Spec(0.25), options);

  for (const std::string& sql : rig.workload.sql) {
    ASSERT_TRUE(rig.advisor->IngestSql(sql).ok());
  }
  const OnlineAdvisorStats stats = rig.advisor->stats();
  // The initial selection fired; the rotating window then erodes the
  // incumbent's utility (its views' queries leave the window), so the
  // regression trigger re-selects at least once more.
  EXPECT_GT(stats.reselections, 1u);
  EXPECT_EQ(stats.swaps_committed, stats.reselections);
}

// ---------------------------------------------------------------------
// 6. Serving: clients ingest and serve through the live advisor.

/// `n` requests over `nq` queries from a rotating quarter of the query
/// space: request i draws from quarter 4i/n, so the live window churns
/// through four disjoint mixes.
std::vector<size_t> RotatingQuarterStream(uint64_t seed, size_t n,
                                          size_t nq) {
  Rng rng(seed);
  std::vector<size_t> stream;
  for (size_t i = 0; i < n; ++i) {
    const size_t quarter = 4 * i / n;
    const size_t lo = quarter * nq / 4;
    const size_t hi = std::max(lo + 1, (quarter + 1) * nq / 4);
    stream.push_back(lo + static_cast<size_t>(rng.UniformInt(
                              0, static_cast<int64_t>(hi - lo) - 1)));
  }
  return stream;
}

TEST(AdvisorServingTest, OnlineModeReselectsAndSwapsWhileServing) {
  OnlineAdvisorOptions options;
  options.seed = 12345;
  options.epoch_queries = 4;
  options.window_queries = 16;
  options.select_iterations = 15;
  options.reselect_budget_ms = 10e3;
  AdvisorRig rig(Wk1Spec(0.15), options);
  const Catalog& catalog = rig.workload.db->catalog();
  const Executor executor(rig.workload.db.get());
  const Rewriter rewriter(&catalog);

  // Every request is ingested before it is served, so an epoch boundary
  // re-selects and hot-swaps the store on one client's thread while the
  // other client keeps serving from its pins.
  constexpr size_t kClients = 2;
  constexpr size_t kPerClient = 8;
  std::atomic<size_t> failed{0};
  const auto serve = [&](size_t client) {
    for (const size_t qi :
         RotatingQuarterStream(Rng::StreamSeed(options.seed, client),
                               kPerClient, rig.workload.sql.size())) {
      const std::string& sql = rig.workload.sql[qi];
      if (!rig.advisor->IngestSql(sql).ok()) {
        ++failed;
        continue;
      }
      // Holds the live generation resident across the other client's
      // swap; a swap that freed pinned views early fails under tsan/asan.
      const ViewSetSnapshot live = rig.store->PinLive();
      Result<PlanNodePtr> plan = PlanBuilder(&catalog).BuildFromSql(sql);
      if (!plan.ok()) {
        ++failed;
        continue;
      }
      Result<ServingRewrite> serving =
          rewriter.RewriteServing(plan.value(), rig.store.get());
      if (!serving.ok() ||
          !executor.ExecuteForCost(*serving.value().plan).ok()) {
        ++failed;
      }
    }
  };
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) clients.emplace_back(serve, c);
  for (std::thread& t : clients) t.join();

  const OnlineAdvisorStats stats = rig.advisor->stats();
  EXPECT_EQ(stats.ingested, kClients * kPerClient);
  EXPECT_GT(stats.reselections, 0u);
  EXPECT_EQ(stats.swaps_committed, stats.reselections);
  EXPECT_EQ(failed.load(), 0u);
}

}  // namespace
}  // namespace autoview
