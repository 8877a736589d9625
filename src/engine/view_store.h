#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/cost.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/rewrite_cache.h"
#include "engine/view_index.h"
#include "engine/view_store_log.h"
#include "plan/plan.h"
#include "util/annotations.h"
#include "util/status.h"

namespace autoview {

class ThreadPool;
class MaterializedViewStore;

/// \brief One materialized view: a subquery plan plus its stored result.
struct MaterializedView {
  int64_t id = 0;
  std::string table_name;     ///< backing table registered in the Database
  PlanNodePtr plan;           ///< the subquery this view materializes
  std::string canonical_key;  ///< CanonicalKey(*plan)
  uint64_t byte_size = 0;     ///< u_sto: stored result size
  CostReport build_cost;      ///< A(s): cost of computing the subquery
  double utility = 0.0;       ///< solver score (benefit minus overhead)
  uint64_t generation = 1;    ///< selection epoch that installed it
};

/// \brief Configuration of a MaterializedViewStore.
struct ViewStoreOptions {
  /// Byte budget for stored view results; 0 = unlimited. When an
  /// admission would exceed it, the lowest utility-per-byte unpinned
  /// views are evicted first (see MaterializedViewStore).
  uint64_t budget_bytes = 0;

  /// Path of the checksummed view-state log (ViewStateLog). Empty
  /// disables durability: the store is then a purely in-memory cache.
  std::string wal_path;

  /// Pool for async (re)materialization; nullptr uses DefaultPool().
  ThreadPool* pool = nullptr;

  /// Defaults plus the AUTOVIEW_VIEW_BUDGET_BYTES environment variable
  /// (unset/invalid = unlimited). The plain store constructor uses this,
  /// so operators can bound every serving store without code changes.
  /// A malformed value is rejected loudly (warning log) — see
  /// FromEnvStrict() for the error itself.
  static ViewStoreOptions FromEnv();

  /// Like FromEnv() but a malformed AUTOVIEW_VIEW_BUDGET_BYTES is a
  /// ParseError instead of a warn-and-stay-unlimited. Strict
  /// whole-string parsing (util/parse.h): "-1", leading/trailing junk,
  /// and values past uint64 are all rejected — the strtoull family
  /// silently wrapped "-1" to "effectively unbounded".
  static Result<ViewStoreOptions> FromEnvStrict();
};

/// \brief Per-call knobs of Materialize/MaterializeAsync.
struct MaterializeOptions {
  /// Utility score from the solver (e.g. MvsProblemIndex::ViewUtility):
  /// the eviction policy ranks views by utility / byte_size.
  double utility = 0.0;

  /// 0 = the store's current generation. A re-selection stages its new
  /// view set under BeginSwap()'s generation; materializing an already
  /// resident key under a newer generation adopts (re-tags) it instead
  /// of failing, so surviving views are never rebuilt.
  uint64_t generation = 0;
};

/// \brief RAII pin over a consistent set of views (one instant of the
/// store), for the serving path: every pinned view's descriptor and
/// backing table stay valid until the snapshot is released, even if the
/// view is evicted, dropped, or retired by a generation swap meanwhile
/// (the physical drop is deferred to the last unpin).
class ViewSetSnapshot {
 public:
  ViewSetSnapshot() = default;
  ViewSetSnapshot(ViewSetSnapshot&& other) noexcept { *this = std::move(other); }
  ViewSetSnapshot& operator=(ViewSetSnapshot&& other) noexcept;
  ViewSetSnapshot(const ViewSetSnapshot&) = delete;
  ViewSetSnapshot& operator=(const ViewSetSnapshot&) = delete;
  ~ViewSetSnapshot() { Release(); }

  /// Unpins every view (idempotent; also run by the destructor).
  void Release();

  /// The pinned views, ascending id. Pointers are valid while this
  /// snapshot is alive.
  const std::vector<const MaterializedView*>& views() const { return views_; }

  /// Store generation at pin time.
  uint64_t generation() const { return generation_; }

 private:
  friend class MaterializedViewStore;

  MaterializedViewStore* store_ = nullptr;
  uint64_t generation_ = 0;
  std::vector<int64_t> ids_;
  std::vector<const MaterializedView*> views_;
};

/// \brief Outcome of a WAL recovery (MaterializedViewStore::Recover).
struct RecoveryReport {
  size_t replayed_records = 0;   ///< valid WAL records accepted
  size_t committed_views = 0;    ///< views live in the committed state
  size_t rematerialized = 0;     ///< rebuilt (sync) or scheduled (async)
  size_t failed = 0;             ///< unresolvable/failed rebuilds (sync)
  bool torn_tail = false;        ///< WAL had a torn tail (discarded)
};

/// \brief Budgeted, crash-safe cache of materialized views.
///
/// Owns materialized views: executes subqueries, installs their results
/// as scannable tables, and supports dropping them again. On top of the
/// original materialize-on-select store this adds:
///
///  * **Budget + eviction** — `ViewStoreOptions::budget_bytes` bounds
///    the bytes of stored results; an admission that would exceed it
///    first evicts unpinned views in ascending utility-per-byte order
///    (utility / byte_size, ties broken by ascending id — fully
///    deterministic). Pinned views are never evicted; when nothing
///    evictable can make room, Materialize returns ResourceExhausted
///    and the caller serves from base tables instead.
///  * **Pinning + deferred drop** — PinLive() returns an RAII
///    ViewSetSnapshot; a pinned view that is dropped/evicted/retired is
///    only *logically* removed (invisible to lookups, WAL DROP written)
///    and its table survives until the last unpin, so an in-flight
///    rewrite never sees a dangling view.
///  * **Async materialization + generation hot swap** — subquery
///    execution happens OUTSIDE the store mutex (concurrent builds
///    proceed in parallel; installation serializes), optionally on the
///    shared thread pool via MaterializeAsync. A re-selection stages
///    its set under BeginSwap()'s generation and CommitSwap() retires
///    every older view atomically; serving continues throughout on
///    pinned snapshots.
///  * **Durability** — with `wal_path` set, every commit appends a
///    checksummed record to a ViewStateLog; Recover() replays the
///    longest valid prefix (torn tails are detected and discarded),
///    compacts the log, and rematerializes the committed set — inline
///    or in the background on the pool.
///
/// Thread-safe. Returned MaterializedView pointers stay valid until the
/// view's *physical* drop; concurrent callers must hold a pin (snapshot)
/// across any use, since eviction can drop unpinned views at any time.
class MaterializedViewStore {
 public:
  /// `db` must outlive the store; views are registered into it. The
  /// single-argument form reads ViewStoreOptions::FromEnv().
  explicit MaterializedViewStore(Database* db)
      : MaterializedViewStore(db, ViewStoreOptions::FromEnv()) {}
  MaterializedViewStore(Database* db, ViewStoreOptions options);

  /// Executes `subquery` (outside the store mutex), stores the result
  /// as a new table named `__mv_<id>`, evicting lowest-score views if
  /// the budget requires, and returns the view descriptor. While a
  /// build is in flight its key is reserved, so concurrent duplicate
  /// builds fail fast with AlreadyExists instead of racing.
  Result<const MaterializedView*> Materialize(
      PlanNodePtr subquery, const Executor& executor,
      MaterializeOptions mopts = MaterializeOptions()) AV_EXCLUDES(mu_);

  /// Materialize on the pool (`options.pool` or DefaultPool()). The
  /// future resolves to the install status (AlreadyExists when a
  /// concurrent build won the key). `executor` must outlive the call;
  /// use WaitIdle() to drain all scheduled builds.
  std::future<Status> MaterializeAsync(
      PlanNodePtr subquery, const Executor& executor,
      MaterializeOptions mopts = MaterializeOptions()) AV_EXCLUDES(mu_);

  /// Looks a view up by the canonical key of its plan. Logically
  /// dropped (doomed) views are invisible. See the class comment for
  /// pointer validity; concurrent callers should prefer PinLive().
  const MaterializedView* FindByKey(const std::string& canonical_key) const
      AV_EXCLUDES(mu_);

  const MaterializedView* FindById(int64_t id) const AV_EXCLUDES(mu_);

  /// Pins every live view (all generations) at one instant.
  ViewSetSnapshot PinLive() AV_EXCLUDES(mu_);

  /// Pins exactly the views in `ids`, all-or-nothing: NotFound (and no
  /// pins taken) when any id is absent or logically dropped. The fast
  /// serving path uses this to pin only the views a rewritten plan
  /// actually scans — O(|ids|) instead of PinLive's O(store).
  Result<ViewSetSnapshot> PinViews(const std::vector<int64_t>& ids)
      AV_EXCLUDES(mu_);

  /// The canonical-key -> candidate-views index this store maintains
  /// (insert on install/recovery, erase on doom). Always probe-safe;
  /// pin before executing against a probed view (see ViewIndex).
  const ViewIndex& view_index() const { return index_; }

  /// The (plan canonical key, generation)-keyed rewrite-result cache.
  /// CommitSwap invalidates every older-generation entry. Exposed
  /// non-const: the serving path (Rewriter::RewriteServing) inserts,
  /// heals, and looks up entries directly.
  RewriteCache& rewrite_cache() { return rewrite_cache_; }

  /// Drops the view and its backing table (deferred while pinned).
  Status Drop(int64_t id) AV_EXCLUDES(mu_);

  /// Drops everything (deferred for pinned views).
  Status Clear() AV_EXCLUDES(mu_);

  /// Starts a generation swap: returns the staging generation new
  /// views should be materialized under.
  uint64_t BeginSwap() AV_EXCLUDES(mu_);

  /// Commits `generation` as current and retires (drops, deferred
  /// while pinned) every live view of an older generation. In-flight
  /// queries keep serving from their pinned snapshots.
  Status CommitSwap(uint64_t generation) AV_EXCLUDES(mu_);

  /// Replays the WAL into this (empty) store: determines the committed
  /// view set, compacts the log, and rematerializes each view through
  /// `resolve` (canonical key -> plan; views it cannot resolve are
  /// dropped). With `background` true the rebuilds run on the pool
  /// (WaitIdle() to drain); otherwise inline before returning.
  Result<RecoveryReport> Recover(
      const Executor& executor,
      const std::function<PlanNodePtr(const std::string&)>& resolve,
      bool background = false) AV_EXCLUDES(mu_);

  /// Compacts the WAL to exactly the current committed state
  /// (checkpoint record + one MATERIALIZE per live view), atomically.
  Status Checkpoint() const AV_EXCLUDES(mu_);

  /// Blocks until no async build scheduled by this store is in flight.
  void WaitIdle() const AV_EXCLUDES(mu_);

  /// Live (non-doomed) view count.
  size_t size() const AV_EXCLUDES(mu_);

  /// Stored bytes currently accounted against the budget (includes
  /// logically dropped views whose physical drop is pin-deferred).
  uint64_t bytes_used() const AV_EXCLUDES(mu_);

  uint64_t budget_bytes() const { return options_.budget_bytes; }

  uint64_t current_generation() const AV_EXCLUDES(mu_);

  /// Total overhead O_v = A_alpha(v) + A(s) across all live views.
  double TotalOverhead(const Pricing& pricing) const AV_EXCLUDES(mu_);

 private:
  friend class ViewSetSnapshot;

  struct Entry {
    MaterializedView view;
    int pins = 0;        ///< outstanding snapshot references
    bool doomed = false; ///< logically dropped, physical drop deferred
  };
  using EntryMap = std::map<int64_t, Entry>;

  /// Installs a finished build under the lock (budget eviction, WAL
  /// commit, table registration, index insert).
  Result<const MaterializedView*> InstallLocked(PlanNodePtr plan,
                                                std::string key,
                                                ExecResult result,
                                                const MaterializeOptions& mopts)
      AV_REQUIRES(mu_);

  /// Evicts lowest utility-per-byte unpinned views until `needed` more
  /// bytes fit in the budget; ResourceExhausted when impossible.
  Status EvictToFitLocked(uint64_t needed) AV_REQUIRES(mu_);

  /// Lowest utility-per-byte unpinned live view (ties -> lowest id);
  /// end() when every resident view is pinned or doomed.
  EntryMap::iterator PickVictimLocked() AV_REQUIRES(mu_);

  /// Logical drop: WAL DROP record, key unindexed; physical drop now or
  /// deferred to the last unpin.
  Status DoomLocked(EntryMap::iterator it) AV_REQUIRES(mu_);

  /// Drops the backing table and erases the entry.
  Status PhysicalDropLocked(EntryMap::iterator it) AV_REQUIRES(mu_);

  /// The WAL MATERIALIZE record for `view`.
  static ViewLogRecord MaterializeRecord(const MaterializedView& view);

  /// Unpins `ids` (snapshot release); performs deferred drops.
  void UnpinAll(const std::vector<int64_t>& ids) AV_EXCLUDES(mu_);

  /// Rebuilds one recovered view with its committed identity.
  Status RematerializeRecovered(const ViewLogRecord& record, PlanNodePtr plan,
                                const Executor& executor) AV_EXCLUDES(mu_);

  Database* db_;
  const ViewStoreOptions options_;
  std::unique_ptr<ViewStateLog> log_;  ///< null when wal_path is empty

  // Internally synchronized (per-shard mutexes); mutated while holding
  // mu_ (installs/dooms keep index and entry map in lockstep), probed
  // without it. Lock order is therefore mu_ -> shard mutex, and neither
  // structure ever acquires anything itself, so the order is acyclic.
  ViewIndex index_;
  RewriteCache rewrite_cache_;

  mutable Mutex mu_;
  int64_t next_id_ AV_GUARDED_BY(mu_) = 1;
  uint64_t generation_ AV_GUARDED_BY(mu_) = 1;
  uint64_t staged_generation_ AV_GUARDED_BY(mu_) = 1;  ///< BeginSwap high-water
  uint64_t bytes_used_ AV_GUARDED_BY(mu_) = 0;
  EntryMap by_id_ AV_GUARDED_BY(mu_);
  std::map<std::string, int64_t> by_key_ AV_GUARDED_BY(mu_);
  std::set<std::string> building_ AV_GUARDED_BY(mu_);  ///< in-flight keys
  size_t async_inflight_ AV_GUARDED_BY(mu_) = 0;
  mutable CondVar idle_cv_;  ///< signalled when async_inflight_ hits 0
};

}  // namespace autoview
