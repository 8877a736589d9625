#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/streaming_problem.h"
#include "costmodel/traditional.h"
#include "engine/executor.h"
#include "engine/view_store.h"
#include "ilp/problem_index.h"
#include "subquery/clusterer.h"
#include "util/annotations.h"
#include "util/clock.h"
#include "util/status.h"

namespace autoview {

/// \brief When the advisor re-runs view selection (see OnlineAdvisor).
enum class ReselectTrigger {
  /// Every `epoch_queries` ingested queries.
  kQueryEpoch,
  /// When the candidate-set churn (ClustererSession::churn_events since
  /// the last re-selection) reaches `drift_churn_threshold`. Workload
  /// drift shows up as clusters crossing the sharing threshold or
  /// changing argmin member, so churn is a direct drift score.
  kDriftScore,
  /// When the incumbent view set's utility under the *current* index
  /// falls below (1 - utility_regression) of the utility it had when it
  /// was selected. Also fires the initial selection after
  /// `epoch_queries` ingests (there is no incumbent to regress before
  /// that).
  kUtilityRegression,
};

/// \brief Configuration of the OnlineAdvisor.
struct OnlineAdvisorOptions {
  SubqueryClusterer::Options cluster;
  Pricing pricing;
  uint64_t seed = 42;

  ReselectTrigger trigger = ReselectTrigger::kQueryEpoch;
  size_t epoch_queries = 64;           ///< kQueryEpoch period
  uint64_t drift_churn_threshold = 8;  ///< kDriftScore threshold
  double utility_regression = 0.25;    ///< kUtilityRegression fraction

  /// Sliding window: ingesting beyond this many live queries retires
  /// the oldest first, so state stays O(window). 0 = unbounded.
  size_t window_queries = 512;

  /// Iterations of the warm-started delta re-selection (and of the
  /// RLView warm start when `use_rlview` is set).
  size_t select_iterations = 40;
  /// Run RLView episodes on top of the IterView delta (RLView's
  /// defaults for episodes/memory/etc.); off = IterView only.
  bool use_rlview = false;
  /// Wall-clock budget per re-selection, served through `clock` so a
  /// ManualClock keeps replays deterministic. <= 0 = no deadline.
  double reselect_budget_ms = 0.0;

  /// Time source for deadlines; null = DefaultClock(). The advisor
  /// never reads ambient time directly (check_determinism.sh bans
  /// chrono in src/core/advisor.*), so injecting a ManualClock makes
  /// the whole ingest/trigger/re-selection path replayable.
  const Clock* clock = nullptr;
};

/// \brief Monotonic counters + current gauges of one advisor.
struct OnlineAdvisorStats {
  size_t live_queries = 0;      ///< rows in the live window
  size_t candidate_views = 0;   ///< columns (current candidates)
  uint64_t ingested = 0;        ///< queries ever ingested
  uint64_t retired = 0;         ///< queries ever retired (incl. window)
  uint64_t churn_events = 0;    ///< cumulative candidate-set churn
  uint64_t reselections = 0;    ///< re-selections run
  uint64_t swaps_committed = 0; ///< CommitSwap calls that succeeded
  uint64_t views_materialized = 0;  ///< successful (re)materializations
  uint64_t materialize_rejected = 0;  ///< budget-rejected admissions
  double incumbent_utility = 0.0;  ///< utility at the last re-selection
  bool last_reselect_timed_out = false;
};

/// \brief Long-running advisor service: streaming ingest, incremental
/// re-clustering/re-indexing, and deadline-bounded continuous
/// re-selection with hot swap.
///
/// The batch pipeline (cluster -> build matrix -> select -> materialize)
/// answers "given this workload, which views?" once; the advisor keeps
/// answering it as the workload drifts, without ever rebuilding from
/// scratch:
///
///  * **Subquery layer** — a ClustererSession ingests/retires one query
///    at a time; it is the same fold the batch clusterer runs, and it
///    re-derives candidate plans from the live window's root plans.
///  * **Index layer** — the MvsProblemIndex grows/shrinks by row and
///    column mutations, each leaving it EXPECT_EQ-identical to an index
///    rebuilt from scratch over the mutated instance (the dense oracle
///    below); benefit cells use the same RealOpt arithmetic as the
///    batch builders.
///  * **Selection layer** — ReselectDelta warm-starts IterView (or
///    RLView) from the previous incumbent under a Clock-served
///    deadline; the result's utility is never below the incumbent's
///    own utility under the new index.
///  * **Engine layer** — a fired trigger stages the new selection under
///    MaterializedViewStore::BeginSwap(), (re)materializes each chosen
///    view (surviving keys are adopted, not rebuilt), and CommitSwap()
///    retires the old generation atomically while serving continues on
///    pinned snapshots.
///
/// Thread-safe: one mutex serializes ingest/retire/re-selection.
/// Serving threads never take it — they pin the store directly, so a
/// re-selection in progress cannot stall a request.
class OnlineAdvisor {
 public:
  /// `db` and `store` must outlive the advisor; selected views are
  /// materialized into `store` against `db`.
  OnlineAdvisor(Database* db, MaterializedViewStore* store,
                OnlineAdvisorOptions options);

  /// Parses `sql` and ingests it under the next arrival id (returned).
  /// May re-select and hot-swap the store before returning.
  Result<uint64_t> IngestSql(const std::string& sql) AV_EXCLUDES(mu_);

  /// Ingests an already-planned query. Ids must be strictly increasing
  /// across calls (arrival order); IngestSql assigns them automatically.
  Status IngestPlan(uint64_t query_id, const PlanNodePtr& plan)
      AV_EXCLUDES(mu_);

  /// Retires a live query (the sliding window calls this internally for
  /// the oldest query; explicit retirement is for ad-hoc lifecycles).
  Status RetireQuery(uint64_t query_id) AV_EXCLUDES(mu_);

  /// Runs re-selection + hot swap now, regardless of the trigger.
  Status ForceReselect() AV_EXCLUDES(mu_);

  OnlineAdvisorStats stats() const AV_EXCLUDES(mu_);

  /// Canonical keys of the views chosen by the last re-selection,
  /// ascending.
  std::vector<std::string> SelectedKeys() const AV_EXCLUDES(mu_);

  /// Copy of the incrementally maintained index (the mutation tests
  /// EXPECT_EQ this against an index rebuilt from DenseOracleProblem).
  MvsProblemIndex CopyIndex() const AV_EXCLUDES(mu_);

  /// The dense MVS instance of the current state, built from scratch in
  /// the advisor's own row/column order: rows are live queries
  /// ascending id, columns are candidate views in this advisor's
  /// insertion order, cells re-derived from the cached per-query costs
  /// and per-view estimates. MvsProblemIndex(DenseOracleProblem()) must
  /// equal CopyIndex() bit for bit after any mutation sequence.
  Result<MvsProblem> DenseOracleProblem() const AV_EXCLUDES(mu_);

 private:
  /// One candidate column the index knows about.
  struct ViewState {
    /// Stable handle for views_with_subtree_; ascends with column order.
    uint64_t id = 0;
    std::string key;
    PlanNodePtr plan;
    ViewEstimates estimates;
    /// Distinct canonical keys of the plan's subtrees, root included,
    /// ascending.
    std::vector<std::string> subtree_keys;
  };

  struct LiveQuery {
    PlanNodePtr plan;
    double cost = 0.0;
  };

  Status IngestPlanLocked(uint64_t query_id, const PlanNodePtr& plan)
      AV_REQUIRES(mu_);

  /// session_'s QueryFn: the plan of live query `query_id`, or null.
  /// The session calls it only from calls the advisor makes under mu_,
  /// which the analysis cannot see through the std::function.
  PlanNodePtr LivePlan(uint64_t query_id) const AV_NO_THREAD_SAFETY_ANALYSIS;
  Status RetireQueryLocked(uint64_t query_id) AV_REQUIRES(mu_);

  /// Appends candidate `key` as the index's next column (estimates,
  /// benefit cells over the cluster's live queries, overlap partners
  /// found through view_of_key_ and views_with_subtree_).
  Status AddViewLocked(const std::string& key) AV_REQUIRES(mu_);

  /// Removes candidate `key`'s column; later views shift down one.
  Status RemoveViewLocked(const std::string& key) AV_REQUIRES(mu_);

  /// Runs the configured trigger policy; re-selects when it fires.
  Status MaybeReselectLocked() AV_REQUIRES(mu_);

  /// Warm-started re-selection + staged materialization + CommitSwap.
  Status ReselectLocked() AV_REQUIRES(mu_);

  /// The incumbent selection as a z vector over the current columns
  /// (keys that no longer exist are simply absent).
  std::vector<bool> WarmZLocked() const AV_REQUIRES(mu_);

  /// Utility of the incumbent under the current index (Y-Opt per query)
  /// — the kUtilityRegression signal.
  double IncumbentUtilityLocked() const AV_REQUIRES(mu_);

  Database* db_;
  MaterializedViewStore* store_;
  const OnlineAdvisorOptions options_;
  const Clock* clock_;
  Executor executor_;
  TraditionalEstimator estimator_;
  CardinalityEstimator cardinality_;

  mutable Mutex mu_;
  ClustererSession session_ AV_GUARDED_BY(mu_);
  MvsProblemIndex index_ AV_GUARDED_BY(mu_);
  /// Row i of index_ is query row_ids_[i]; ascending (arrival order).
  std::vector<uint64_t> row_ids_ AV_GUARDED_BY(mu_);
  /// Each live query's root plan (the session re-derives candidate plans
  /// from it) and estimated cost A(q), cached at ingest so later column
  /// additions re-derive cells bit-identically.
  std::map<uint64_t, LiveQuery> live_ AV_GUARDED_BY(mu_);
  /// Column j of index_ is views_[j]; view_of_key_ inverts it.
  std::vector<ViewState> views_ AV_GUARDED_BY(mu_);
  std::map<std::string, size_t, std::less<>> view_of_key_ AV_GUARDED_BY(mu_);
  /// Inverted subtree-key index: ids of the live views whose plan
  /// contains a subtree with that canonical key, ascending. A view is
  /// indexed under key k exactly when it is live and contains k.
  std::unordered_map<std::string, std::vector<uint64_t>> views_with_subtree_
      AV_GUARDED_BY(mu_);
  uint64_t next_view_id_ AV_GUARDED_BY(mu_) = 0;

  /// Keys selected by the last re-selection (the warm start of the
  /// next) and their utility at selection time.
  std::set<std::string> incumbent_keys_ AV_GUARDED_BY(mu_);
  double incumbent_utility_ AV_GUARDED_BY(mu_) = 0.0;
  bool last_reselect_timed_out_ AV_GUARDED_BY(mu_) = false;

  uint64_t next_query_id_ AV_GUARDED_BY(mu_) = 0;
  size_t ingests_since_reselect_ AV_GUARDED_BY(mu_) = 0;
  uint64_t churn_at_reselect_ AV_GUARDED_BY(mu_) = 0;
  uint64_t ingested_ AV_GUARDED_BY(mu_) = 0;
  uint64_t retired_ AV_GUARDED_BY(mu_) = 0;
  uint64_t reselections_ AV_GUARDED_BY(mu_) = 0;
  uint64_t swaps_committed_ AV_GUARDED_BY(mu_) = 0;
  uint64_t views_materialized_ AV_GUARDED_BY(mu_) = 0;
  uint64_t materialize_rejected_ AV_GUARDED_BY(mu_) = 0;
};

}  // namespace autoview
