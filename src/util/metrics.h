#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace autoview {

/// \brief Lock-free execution counters of one ThreadPool, so parallel
/// speedup is observable without a profiler: tasks executed, the highest
/// queue depth seen, and total busy wall time across workers.
class PoolCounters {
 public:
  /// Records one completed task that ran for `nanos` wall nanoseconds.
  void RecordTask(uint64_t nanos);

  /// Records the queue depth observed after an enqueue (keeps the max).
  void RecordQueueDepth(uint64_t depth);

  /// Consistent-enough point-in-time copy for reporting.
  struct Snapshot {
    uint64_t tasks_run = 0;        ///< tasks executed by workers
    uint64_t max_queue_depth = 0;  ///< peak backlog
    uint64_t busy_nanos = 0;       ///< summed per-task wall time
  };
  Snapshot Read() const;

 private:
  // Monotonic relaxed counters (see util/annotations.h conventions):
  // each is independently meaningful, no cross-counter invariant is
  // promised, so Snapshot tolerates torn reads between fields.
  std::atomic<uint64_t> tasks_run_{0};
  std::atomic<uint64_t> max_queue_depth_{0};  // CAS-max loop
  std::atomic<uint64_t> busy_nanos_{0};
};

/// \brief Lock-free counters of the robustness layer: estimator
/// fallbacks to the traditional cost model, injected faults (see
/// util/failpoint.h), and selector deadline timeouts. A process-wide
/// instance is reachable via GlobalRobustness() so operators can tell
/// *how degraded* a run was, not just that it completed.
class RobustnessCounters {
 public:
  /// One per-call fallback from a learned estimator to the traditional
  /// cost model (NaN/Inf output or failed model load).
  void RecordFallback();

  /// One fault actually injected by an armed failpoint.
  void RecordFaultInjected();

  /// One selector Select() call that hit its deadline and returned its
  /// best-so-far incumbent.
  void RecordTimeout();

  /// One Rewrite/RewriteAll call that matched a view whose backing table
  /// was concurrently evicted/dropped and fell back to the base-table
  /// plan instead of failing the query.
  void RecordRewriteFallback();

  struct Snapshot {
    uint64_t estimator_fallbacks = 0;
    uint64_t faults_injected = 0;
    uint64_t selection_timeouts = 0;
    uint64_t rewrite_fallbacks = 0;
  };
  Snapshot Read() const;

  /// Zeroes every counter (tests).
  void Reset();

 private:
  // Relaxed: hammered from pool workers on degraded paths; only the
  // per-counter totals matter, never ordering between them (enforced at
  // runtime by tests/static_analysis_test.cc).
  std::atomic<uint64_t> estimator_fallbacks_{0};
  std::atomic<uint64_t> faults_injected_{0};
  std::atomic<uint64_t> selection_timeouts_{0};
  std::atomic<uint64_t> rewrite_fallbacks_{0};
};

/// The process-wide robustness counters.
RobustnessCounters& GlobalRobustness();

/// \brief Lock-free work counters of the selectors, so the dense-vs-
/// sparse cost claims are verifiable by observation (not just wall
/// time): how many benefit cells each utility/reward evaluation touched
/// and how many per-query Y-Opt re-solves ran. The dense test oracle
/// (tests/selection_oracle.h) charges the |Q|x|Z| scan it performs; the
/// library charges only the sparse support it actually reads.
class SelectionCounters {
 public:
  /// Benefit-matrix cells read while computing a utility (or a DQN
  /// reward, which is a utility delta).
  void RecordUtilityCells(uint64_t cells);

  /// Per-query exact Y-Opt solves executed.
  void RecordQueriesSolved(uint64_t queries);

  struct Snapshot {
    uint64_t utility_cells = 0;   ///< cells read by utility/reward evals
    uint64_t queries_solved = 0;  ///< per-query Y-Opt invocations
  };
  Snapshot Read() const;

  /// Zeroes every counter (tests, benches).
  void Reset();

 private:
  // Relaxed (see util/annotations.h conventions): hammered from pool
  // workers in parallel trials; only per-counter totals matter, no
  // cross-counter ordering is promised.
  std::atomic<uint64_t> utility_cells_{0};
  std::atomic<uint64_t> queries_solved_{0};
};

/// The process-wide selection-work counters.
SelectionCounters& GlobalSelection();

/// \brief Lock-free counters of the budgeted view store, so a run can
/// report *how* the cache behaved — not just the final contents: budget
/// evictions, admissions the budget rejected outright, background
/// builds, and WAL recovery outcomes. A process-wide instance is
/// reachable via GlobalViewStore() (perfbench reports its evictions).
class ViewStoreCounters {
 public:
  /// One view dropped by the eviction policy to make room (`bytes` is
  /// its stored size, accumulated into evicted_bytes).
  void RecordEviction(uint64_t bytes);

  /// One Materialize the budget rejected outright (view larger than the
  /// whole budget, or every resident view pinned).
  void RecordAdmissionRejected();

  /// One (re)materialization executed on the background pool.
  void RecordAsyncBuild();

  /// One committed view restored by Recover() replay.
  void RecordRecoveredView();

  /// One torn / checksum-failed WAL tail discarded by replay.
  void RecordTornWalTail();

  struct Snapshot {
    uint64_t evictions = 0;
    uint64_t evicted_bytes = 0;
    uint64_t admissions_rejected = 0;
    uint64_t async_builds = 0;
    uint64_t recovered_views = 0;
    uint64_t torn_wal_tails = 0;
  };
  Snapshot Read() const;

  /// Zeroes every counter (tests, benches).
  void Reset();

 private:
  // Relaxed (see util/annotations.h conventions): bumped under the
  // store mutex or from pool workers; only per-counter totals matter,
  // no cross-counter ordering is promised.
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> evicted_bytes_{0};
  std::atomic<uint64_t> admissions_rejected_{0};
  std::atomic<uint64_t> async_builds_{0};
  std::atomic<uint64_t> recovered_views_{0};
  std::atomic<uint64_t> torn_wal_tails_{0};
};

/// The process-wide view-store counters.
ViewStoreCounters& GlobalViewStore();

/// \brief Lock-free counters of the serving-path rewrite cache, so a run
/// can report how much of the rewrite work was amortized away: hits
/// (plan served from cache), misses (full indexed walk ran), inserts,
/// entries invalidated by generation swaps, whole-cache invalidation
/// sweeps, and hits discarded because a cached view could no longer be
/// pinned. A process-wide instance is reachable via GlobalRewriteCache()
/// (perfbench reports the hit ratio per run).
class RewriteCacheCounters {
 public:
  /// One Lookup that returned a cached rewrite (and re-pinned its views).
  void RecordHit();

  /// One Lookup that found nothing for (key, generation).
  void RecordMiss();

  /// One rewrite result inserted into the cache.
  void RecordInsert();

  /// `entries` cache entries dropped by an invalidation sweep.
  void RecordInvalidatedEntries(uint64_t entries);

  /// One InvalidateBefore sweep (CommitSwap generation bump).
  void RecordInvalidationSweep();

  /// One cached entry discarded because PinViews failed on its view ids
  /// (a referenced view was evicted within the same generation).
  void RecordPinFailure();

  struct Snapshot {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t invalidated_entries = 0;
    uint64_t invalidation_sweeps = 0;
    uint64_t pin_failures = 0;
  };
  Snapshot Read() const;

  /// Zeroes every counter (tests, benches).
  void Reset();

 private:
  // Relaxed (see util/annotations.h conventions): hammered from serving
  // threads; only per-counter totals matter, no cross-counter ordering
  // is promised.
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> invalidated_entries_{0};
  std::atomic<uint64_t> invalidation_sweeps_{0};
  std::atomic<uint64_t> pin_failures_{0};
};

/// The process-wide rewrite-cache counters.
RewriteCacheCounters& GlobalRewriteCache();

/// \brief Streaming mean / variance / min / max accumulator (Welford).
class RunningStat {
 public:
  void Add(double x);
  size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Mean Absolute Error between ground truth `y` and predictions `yhat`.
/// These evaluation helpers are library boundaries: a size mismatch
/// between the two vectors yields quiet NaN instead of aborting.
double MeanAbsoluteError(const std::vector<double>& y,
                         const std::vector<double>& yhat);

/// Mean Absolute Percent Error; ground-truth entries with |y| < eps are
/// clamped to eps to avoid division blow-ups (matching common practice).
double MeanAbsolutePercentError(const std::vector<double>& y,
                                const std::vector<double>& yhat,
                                double eps = 1e-9);

/// Root mean squared error.
double RootMeanSquaredError(const std::vector<double>& y,
                            const std::vector<double>& yhat);

/// Pearson correlation coefficient; 0 when either side is constant.
double PearsonCorrelation(const std::vector<double>& y,
                          const std::vector<double>& yhat);

}  // namespace autoview
