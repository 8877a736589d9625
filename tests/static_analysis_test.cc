// Runtime counterpart of the static-analysis tier: hammers the
// annotated invariants (AV_GUARDED_BY state in util/failpoint,
// util/metrics' relaxed counters, core/metadata's serialized file I/O,
// costmodel/fallback's degraded flag) from many threads and asserts the
// exact totals the annotations promise. Run it under
// `scripts/run_sanitizer_suites.sh tsan` to pair the compile-time
// analysis with a dynamic race check over the same state.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/metadata.h"
#include "costmodel/fallback.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/rewriter.h"
#include "engine/view_store.h"
#include "plan/builder.h"
#include "plan/canonical.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace autoview {
namespace {

/// Minimal always-finite estimator so the FallbackEstimator race test
/// exercises only the wrapper's own synchronization.
class StubEstimator : public CostEstimator {
 public:
  Status Train(const std::vector<CostSample>&) override {
    return Status::OK();
  }
  double Estimate(const CostSample&) const override { return 1.0; }
  std::string name() const override { return "stub"; }
};

constexpr int kThreads = 8;
constexpr int kItersPerThread = 5000;

/// Runs `fn(thread_index)` on kThreads raw std::threads (not the shared
/// pool: the point is genuinely concurrent entry, and nested pool use
/// would inline).
void Hammer(const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fn, t] { fn(t); });
  }
  for (auto& th : threads) th.join();
}

TEST(StaticAnalysisRuntime, RobustnessCountersExactUnderContention) {
  RobustnessCounters counters;
  Hammer([&counters](int) {
    for (int i = 0; i < kItersPerThread; ++i) {
      counters.RecordFallback();
      if (i % 2 == 0) counters.RecordFaultInjected();
      if (i % 5 == 0) counters.RecordTimeout();
    }
  });
  const auto snap = counters.Read();
  EXPECT_EQ(snap.estimator_fallbacks,
            uint64_t{kThreads} * kItersPerThread);
  EXPECT_EQ(snap.faults_injected, uint64_t{kThreads} * (kItersPerThread / 2));
  EXPECT_EQ(snap.selection_timeouts,
            uint64_t{kThreads} * (kItersPerThread / 5));
}

TEST(StaticAnalysisRuntime, GlobalRobustnessSharedInstance) {
  GlobalRobustness().Reset();
  Hammer([](int) {
    for (int i = 0; i < kItersPerThread; ++i) {
      GlobalRobustness().RecordTimeout();
    }
  });
  EXPECT_EQ(GlobalRobustness().Read().selection_timeouts,
            uint64_t{kThreads} * kItersPerThread);
  GlobalRobustness().Reset();
}

TEST(StaticAnalysisRuntime, PoolCountersMaxDepthIsTrueMax) {
  PoolCounters counters;
  // Every thread reports a distinct interleaved sequence of depths; the
  // CAS-max loop must land on the global maximum exactly.
  Hammer([&counters](int t) {
    for (int i = 0; i < kItersPerThread; ++i) {
      counters.RecordQueueDepth(static_cast<uint64_t>(t * kItersPerThread + i));
      counters.RecordTask(1);
    }
  });
  const auto snap = counters.Read();
  EXPECT_EQ(snap.max_queue_depth,
            uint64_t{kThreads} * kItersPerThread - 1);
  EXPECT_EQ(snap.tasks_run, uint64_t{kThreads} * kItersPerThread);
  EXPECT_EQ(snap.busy_nanos, uint64_t{kThreads} * kItersPerThread);
}

TEST(StaticAnalysisRuntime, FailpointRegistryCountsEveryFire) {
  auto& fp = Failpoints::Instance();
  ASSERT_TRUE(fp.Configure("hammer.site=error").ok());
  GlobalRobustness().Reset();
  std::atomic<uint64_t> fired{0};
  Hammer([&fp, &fired](int) {
    for (int i = 0; i < kItersPerThread; ++i) {
      if (fp.Evaluate("hammer.site") == FailAction::kError) {
        fired.fetch_add(1, std::memory_order_relaxed);
      }
      // Unknown sites must stay silent even while the armed one fires.
      ASSERT_EQ(fp.Evaluate("hammer.other"), FailAction::kNone);
    }
  });
  const uint64_t expected = uint64_t{kThreads} * kItersPerThread;
  EXPECT_EQ(fired.load(), expected);  // probability 1.0: always fires
  EXPECT_EQ(fp.hits("hammer.site"), expected);
  EXPECT_EQ(fp.total_hits(), expected);
  EXPECT_EQ(GlobalRobustness().Read().faults_injected, expected);
  fp.Clear();
  GlobalRobustness().Reset();
}

TEST(StaticAnalysisRuntime, FailpointReconfigureRacesEvaluateSafely) {
  auto& fp = Failpoints::Instance();
  ASSERT_TRUE(fp.Configure("flip.site=nan:0.5").ok());
  std::atomic<bool> stop{false};
  // Half the threads evaluate while the other half re-configure; the
  // registry mutex must keep every observation either kNone or kNan
  // (never a torn site entry) and the process alive.
  Hammer([&fp, &stop](int t) {
    for (int i = 0; i < kItersPerThread && !stop.load(); ++i) {
      if (t % 2 == 0) {
        const FailAction a = fp.Evaluate("flip.site");
        if (a != FailAction::kNone && a != FailAction::kNan) {
          stop.store(true);
          FAIL() << "torn failpoint action observed";
        }
      } else {
        ASSERT_TRUE(fp.Configure("flip.site=nan:0.5").ok());
      }
    }
  });
  EXPECT_FALSE(stop.load());
  fp.Clear();
  GlobalRobustness().Reset();
}

TEST(StaticAnalysisRuntime, MetadataAppendsNeverInterleave) {
  const std::string path =
      ::testing::TempDir() + "/static_analysis_metadata.tsv";
  std::remove(path.c_str());
  MetadataStore store(path);
  constexpr int kAppendsPerThread = 200;
  // Every thread appends records tagged with its own id; the io mutex
  // must keep each record's bytes contiguous so Load() parses all of
  // them back (an interleaved write shows up as a field-count or
  // numeric ParseError).
  Hammer([&store](int t) {
    for (int i = 0; i < kAppendsPerThread; ++i) {
      MetadataRecord r;
      r.query_sql = "SELECT q";
      r.query_sql += std::to_string(t);
      r.query_sql += "_";
      r.query_sql += std::to_string(i);
      r.view_sql = "SELECT v";
      r.view_sql += std::to_string(t);
      r.tables = "t";
      r.tables += std::to_string(t);
      r.rewritten_cost = t + i * 1e-3;
      r.query_cost = t;
      r.subquery_cost = i;
      ASSERT_TRUE(store.Append({r}).ok());
    }
  });
  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().size(),
            static_cast<size_t>(kThreads) * kAppendsPerThread);
  std::remove(path.c_str());
}

TEST(StaticAnalysisRuntime, FallbackDegradeRacesEstimateSafely) {
  StubEstimator primary;
  StubEstimator fallback;
  FallbackEstimator guarded(&primary, &fallback);
  // Each MarkDegraded logs a warning; 2000 flips would swamp the test
  // output, so raise the threshold for the duration of the hammer.
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  std::atomic<bool> done{false};
  std::thread flipper([&guarded, &done] {
    for (int i = 0; i < 2000; ++i) {
      guarded.MarkDegraded("hammer reason " + std::to_string(i));
    }
    done.store(true);
  });
  // Readers race the flipper: every degraded observation must come with
  // a non-empty reason (MarkDegraded publishes the reason before the
  // flag), and Estimate must never crash or return garbage mid-flip.
  Hammer([&guarded, &done](int) {
    while (!done.load(std::memory_order_relaxed)) {
      const double v = guarded.Estimate(CostSample{});
      ASSERT_TRUE(std::isfinite(v));
      if (guarded.degraded()) {
        ASSERT_FALSE(guarded.degraded_reason().empty());
      }
    }
  });
  flipper.join();
  SetLogLevel(saved_level);
  EXPECT_TRUE(guarded.degraded());
}

TEST(StaticAnalysisRuntime, ViewStoreEvictionRecoveryHammer) {
  // The budgeted store's full concurrent surface at once: materialize
  // (sync + async), utility-per-byte eviction, pin/serve/release,
  // drop, and rewrite-with-fallback — all racing on one store — then a
  // crash-recovery pass over the WAL the melee produced.
  Database db;
  std::vector<Row> rows;
  for (int64_t k = 0; k < 8; ++k) {
    for (int64_t n = 0; n < (k + 1) * 2; ++n) {
      std::string tag = "h";
      tag += std::to_string(k * 100 + n);
      rows.push_back({Value(k), Value(std::move(tag))});
    }
  }
  ASSERT_TRUE(db.AddTable(TableSchema("ht", {{"k", ColumnType::kInt64},
                                             {"v", ColumnType::kString}}),
                          std::move(rows))
                  .ok());
  ASSERT_TRUE(db.ComputeAllStats().ok());

  // Plans are built before the melee: planning is single-threaded by
  // contract; only execution/DDL may race.
  PlanBuilder builder(&db.catalog());
  std::vector<PlanNodePtr> plans;
  for (int k = 0; k < 8; ++k) {
    auto plan = builder.BuildFromSql("SELECT k, v FROM ht WHERE k = " +
                                     std::to_string(k));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plans.push_back(plan.value());
  }

  const std::string wal =
      ::testing::TempDir() + "/static_analysis_view_store.wal";
  std::remove(wal.c_str());
  Executor exec(&db);
  ThreadPool pool(4);
  ViewStoreOptions options;
  options.budget_bytes = 2048;  // tight: forces continual eviction
  options.wal_path = wal;
  options.pool = &pool;
  MaterializedViewStore store(&db, options);
  Rewriter rewriter(&db.catalog());

  constexpr int kHammerIters = 200;
  std::atomic<uint64_t> served{0};
  Hammer([&](int t) {
    for (int i = 0; i < kHammerIters; ++i) {
      const size_t j = static_cast<size_t>(t + i) % plans.size();
      switch ((t + i) % 4) {
        case 0: {
          MaterializeOptions mopts;
          mopts.utility = static_cast<double>((t * 31 + i) % 7) + 0.5;
          const auto r = store.Materialize(plans[j], exec, mopts);
          if (!r.ok()) {
            ASSERT_TRUE(r.status().code() == StatusCode::kAlreadyExists ||
                        r.status().code() == StatusCode::kResourceExhausted)
                << r.status().ToString();
          }
          break;
        }
        case 1: {
          // Pin, serve every pinned view through the rewriter (a
          // concurrently evicted view must degrade to the base plan,
          // never fail), release.
          ViewSetSnapshot snapshot = store.PinLive();
          for (const MaterializedView* view : snapshot.views()) {
            bool changed = false;
            auto rewritten = rewriter.Rewrite(plans[j], *view, &changed);
            ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
            auto result = exec.Execute(*rewritten.value());
            ASSERT_TRUE(result.ok()) << result.status().ToString();
            served.fetch_add(1, std::memory_order_relaxed);
          }
          snapshot.Release();
          break;
        }
        case 2: {
          const MaterializedView* view =
              store.FindByKey(CanonicalKey(*plans[j]));
          if (view != nullptr) {
            const Status s = store.Drop(view->id);
            ASSERT_TRUE(s.ok() || s.code() == StatusCode::kNotFound)
                << s.ToString();
          }
          break;
        }
        default: {
          // Fire-and-forget async build; WaitIdle() below is the sync.
          store.MaterializeAsync(plans[j], exec);
          break;
        }
      }
      ASSERT_LE(store.bytes_used(), options.budget_bytes);
    }
  });
  store.WaitIdle();
  EXPECT_GT(served.load(), 0u);
  EXPECT_LE(store.bytes_used(), options.budget_bytes);

  // Quiescent consistency: with every pin released, no doomed entries
  // linger — the live set accounts for every budgeted byte, and every
  // live view's backing table is still registered.
  {
    ViewSetSnapshot snapshot = store.PinLive();
    uint64_t live_bytes = 0;
    for (const MaterializedView* view : snapshot.views()) {
      EXPECT_TRUE(db.HasTable(view->table_name)) << view->table_name;
      live_bytes += view->byte_size;
    }
    EXPECT_EQ(live_bytes, store.bytes_used());
    snapshot.Release();
  }

  // Crash-recovery over the WAL the hammer wrote: the committed state
  // must rebuild cleanly into a fresh database.
  Database db2;
  std::vector<Row> rows2;
  for (int64_t k = 0; k < 8; ++k) {
    for (int64_t n = 0; n < (k + 1) * 2; ++n) {
      std::string tag = "h";
      tag += std::to_string(k * 100 + n);
      rows2.push_back({Value(k), Value(std::move(tag))});
    }
  }
  ASSERT_TRUE(db2.AddTable(TableSchema("ht", {{"k", ColumnType::kInt64},
                                              {"v", ColumnType::kString}}),
                           std::move(rows2))
                  .ok());
  ASSERT_TRUE(db2.ComputeAllStats().ok());
  PlanBuilder builder2(&db2.catalog());
  std::vector<PlanNodePtr> plans2;
  for (int k = 0; k < 8; ++k) {
    plans2.push_back(builder2
                         .BuildFromSql("SELECT k, v FROM ht WHERE k = " +
                                       std::to_string(k))
                         .value());
  }
  Executor exec2(&db2);
  ViewStoreOptions recover_options;
  recover_options.wal_path = wal;
  MaterializedViewStore recovered(&db2, recover_options);
  auto report = recovered.Recover(
      exec2,
      [&plans2](const std::string& key) -> PlanNodePtr {
        for (const PlanNodePtr& plan : plans2) {
          if (CanonicalKey(*plan) == key) return plan;
        }
        return nullptr;
      },
      /*background=*/false);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().failed, 0u);
  EXPECT_EQ(recovered.size(), report.value().committed_views);
  {
    ViewSetSnapshot snapshot = recovered.PinLive();
    for (const MaterializedView* view : snapshot.views()) {
      EXPECT_TRUE(db2.HasTable(view->table_name));
    }
    snapshot.Release();
  }
  std::remove(wal.c_str());
}

}  // namespace
}  // namespace autoview
