#include "engine/view_store.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "plan/canonical.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/parse.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace autoview {

Result<ViewStoreOptions> ViewStoreOptions::FromEnvStrict() {
  ViewStoreOptions options;
  if (const char* raw = std::getenv("AUTOVIEW_VIEW_BUDGET_BYTES")) {
    if (Status s = ParseUint64(raw, &options.budget_bytes); !s.ok()) {
      return Status::ParseError("AUTOVIEW_VIEW_BUDGET_BYTES: " + s.message());
    }
  }
  return options;
}

ViewStoreOptions ViewStoreOptions::FromEnv() {
  Result<ViewStoreOptions> strict = FromEnvStrict();
  if (strict.ok()) return strict.value();
  // Never silently: the old strtoull path wrapped "-1" to ULLONG_MAX
  // (effectively unbounded) without a diagnostic. Strict parsing turns
  // every malformed value into this warning + explicit unlimited.
  AV_LOG(Warning) << strict.status().ToString()
                  << " (store stays unlimited)";
  return ViewStoreOptions();
}

ViewSetSnapshot& ViewSetSnapshot::operator=(ViewSetSnapshot&& other) noexcept {
  if (this != &other) {
    Release();
    store_ = other.store_;
    generation_ = other.generation_;
    ids_ = std::move(other.ids_);
    views_ = std::move(other.views_);
    other.store_ = nullptr;
    other.ids_.clear();
    other.views_.clear();
  }
  return *this;
}

void ViewSetSnapshot::Release() {
  if (store_ != nullptr) store_->UnpinAll(ids_);
  store_ = nullptr;
  ids_.clear();
  views_.clear();
}

MaterializedViewStore::MaterializedViewStore(Database* db,
                                             ViewStoreOptions options)
    : db_(db), options_(std::move(options)) {
  if (!options_.wal_path.empty()) {
    log_ = std::make_unique<ViewStateLog>(options_.wal_path);
  }
}

ViewLogRecord MaterializedViewStore::MaterializeRecord(
    const MaterializedView& view) {
  ViewLogRecord record;
  record.kind = ViewLogRecord::Kind::kMaterialize;
  record.id = view.id;
  record.generation = view.generation;
  record.byte_size = view.byte_size;
  record.utility = view.utility;
  record.canonical_key = view.canonical_key;
  return record;
}

Result<const MaterializedView*> MaterializedViewStore::Materialize(
    PlanNodePtr subquery, const Executor& executor, MaterializeOptions mopts) {
  AV_FAILPOINT_STATUS("viewstore.materialize");
  if (!subquery) return Status::InvalidArgument("null subquery");
  std::string key = CanonicalKey(*subquery);
  {
    MutexLock lock(mu_);
    if (auto it = by_key_.find(key); it != by_key_.end()) {
      Entry& entry = by_id_.at(it->second);
      if (mopts.generation != 0 &&
          mopts.generation != entry.view.generation) {
        // A staged re-selection keeps this survivor: adopt (re-tag) it
        // under the new generation with its fresh solver score instead
        // of rebuilding — the backing table is already correct.
        MaterializedView retagged = entry.view;
        retagged.generation = mopts.generation;
        retagged.utility = mopts.utility;
        // avcheck:allow(blocking-under-lock): WAL append under mu_ is
        // the commit point — the record and the in-memory re-tag must
        // be atomic w.r.t. concurrent readers and crash recovery.
        if (log_) AV_RETURN_NOT_OK(log_->Append(MaterializeRecord(retagged)));
        entry.view.generation = retagged.generation;
        entry.view.utility = retagged.utility;
        return &entry.view;
      }
      return Status::AlreadyExists("view already materialized for subquery");
    }
    if (building_.count(key) != 0) {
      return Status::AlreadyExists("view build already in flight");
    }
    building_.insert(key);
  }
  // The build — the expensive part — runs with the registry unlocked, so
  // concurrent lookups, drops, and other builds proceed in parallel.
  // The key reservation above keeps duplicate builds out meanwhile.
  Result<ExecResult> built = executor.Execute(*subquery);
  MutexLock lock(mu_);
  building_.erase(key);
  if (!built.ok()) return built.status();
  return InstallLocked(std::move(subquery), std::move(key),
                       std::move(built).value(), mopts);
}

Result<const MaterializedView*> MaterializedViewStore::InstallLocked(
    PlanNodePtr plan, std::string key, ExecResult result,
    const MaterializeOptions& mopts) {
  const uint64_t bytes = result.table.ByteSize();
  AV_RETURN_NOT_OK(EvictToFitLocked(bytes));
  MaterializedView view;
  view.id = next_id_++;
  view.table_name = "__mv_" + std::to_string(view.id);
  view.plan = std::move(plan);
  view.canonical_key = std::move(key);
  view.byte_size = bytes;
  view.build_cost = result.cost;
  view.utility = mopts.utility;
  view.generation = mopts.generation != 0 ? mopts.generation : generation_;
  AV_RETURN_NOT_OK(
      db_->AddMaterialized(view.table_name, std::move(result.table)));
  if (log_) {
    // The WAL append is the commit point; a failed append rolls the
    // table back so memory and log agree on the committed set.
    // avcheck:allow(blocking-under-lock): append-under-mu_ is that
    // commit point — record and in-memory install must be atomic.
    if (Status s = log_->Append(MaterializeRecord(view)); !s.ok()) {
      Status dropped = db_->DropTable(view.table_name);
      if (!dropped.ok()) {
        AV_LOG(Warning) << "rollback drop of " << view.table_name
                        << " failed: " << dropped.ToString();
      }
      return s;
    }
  }
  bytes_used_ += view.byte_size;
  auto [it, inserted] = by_id_.emplace(view.id, Entry{std::move(view), 0, false});
  by_key_.emplace(it->second.view.canonical_key, it->first);
  (void)inserted;
  index_.Insert(it->second.view);
  return &it->second.view;
}

Status MaterializedViewStore::EvictToFitLocked(uint64_t needed) {
  if (options_.budget_bytes == 0) return Status::OK();
  if (needed > options_.budget_bytes) {
    GlobalViewStore().RecordAdmissionRejected();
    return Status::ResourceExhausted(
        StrFormat("view of %llu bytes exceeds the whole budget (%llu)",
                  static_cast<unsigned long long>(needed),
                  static_cast<unsigned long long>(options_.budget_bytes)));
  }
  while (bytes_used_ + needed > options_.budget_bytes) {
    auto victim = PickVictimLocked();
    if (victim == by_id_.end()) {
      GlobalViewStore().RecordAdmissionRejected();
      return Status::ResourceExhausted(
          "view budget full and every resident view is pinned");
    }
    const uint64_t victim_bytes = victim->second.view.byte_size;
    AV_RETURN_NOT_OK(DoomLocked(victim));
    GlobalViewStore().RecordEviction(victim_bytes);
  }
  return Status::OK();
}

MaterializedViewStore::EntryMap::iterator
MaterializedViewStore::PickVictimLocked() {
  // Victim: lowest utility-per-byte among unpinned live views; ties
  // break toward the smallest id (the map iterates ascending id and
  // only a strictly lower score displaces the incumbent), so eviction
  // order is fully deterministic.
  auto victim = by_id_.end();
  double victim_score = 0.0;
  for (auto it = by_id_.begin(); it != by_id_.end(); ++it) {
    const Entry& entry = it->second;
    if (entry.doomed || entry.pins > 0) continue;
    const double score =
        entry.view.utility /
        static_cast<double>(std::max<uint64_t>(1, entry.view.byte_size));
    if (victim == by_id_.end() || score < victim_score) {
      victim = it;
      victim_score = score;
    }
  }
  return victim;
}

Status MaterializedViewStore::DoomLocked(EntryMap::iterator it) {
  Entry& entry = it->second;
  if (log_) {
    ViewLogRecord record;
    record.kind = ViewLogRecord::Kind::kDrop;
    record.id = entry.view.id;
    // avcheck:allow(blocking-under-lock): WAL append under mu_ is the
    // commit point — the drop record must land before the in-memory
    // erase becomes visible, or recovery resurrects the view.
    AV_RETURN_NOT_OK(log_->Append(record));
  }
  by_key_.erase(entry.view.canonical_key);
  index_.Erase(entry.view.canonical_key, entry.view.id);
  if (entry.pins > 0) {
    // Logically dropped now (committed above); the table and the byte
    // accounting survive until the last snapshot unpins it.
    entry.doomed = true;
    return Status::OK();
  }
  return PhysicalDropLocked(it);
}

Status MaterializedViewStore::PhysicalDropLocked(EntryMap::iterator it) {
  AV_RETURN_NOT_OK(db_->DropTable(it->second.view.table_name));
  bytes_used_ -= std::min(bytes_used_, it->second.view.byte_size);
  by_id_.erase(it);
  return Status::OK();
}

void MaterializedViewStore::UnpinAll(const std::vector<int64_t>& ids) {
  MutexLock lock(mu_);
  for (int64_t id : ids) {
    auto it = by_id_.find(id);
    if (it == by_id_.end()) continue;  // defensive; pins should pin
    Entry& entry = it->second;
    if (entry.pins > 0) --entry.pins;
    if (entry.pins == 0 && entry.doomed) {
      if (Status s = PhysicalDropLocked(it); !s.ok()) {
        AV_LOG(Warning) << "deferred view drop failed: " << s.ToString();
      }
    }
  }
}

ViewSetSnapshot MaterializedViewStore::PinLive() {
  MutexLock lock(mu_);
  ViewSetSnapshot snapshot;
  snapshot.store_ = this;
  snapshot.generation_ = generation_;
  for (auto& [id, entry] : by_id_) {
    if (entry.doomed) continue;
    ++entry.pins;
    snapshot.ids_.push_back(id);
    snapshot.views_.push_back(&entry.view);
  }
  return snapshot;
}

Result<ViewSetSnapshot> MaterializedViewStore::PinViews(
    const std::vector<int64_t>& ids) {
  MutexLock lock(mu_);
  // All-or-nothing: verify every id first so a partial failure never
  // leaks pins.
  for (int64_t id : ids) {
    auto it = by_id_.find(id);
    if (it == by_id_.end() || it->second.doomed) {
      return Status::NotFound(
          StrFormat("view %lld is no longer live",
                    static_cast<long long>(id)));
    }
  }
  ViewSetSnapshot snapshot;
  snapshot.store_ = this;
  snapshot.generation_ = generation_;
  for (int64_t id : ids) {
    Entry& entry = by_id_.find(id)->second;
    ++entry.pins;
    snapshot.ids_.push_back(id);
    snapshot.views_.push_back(&entry.view);
  }
  return snapshot;
}

std::future<Status> MaterializedViewStore::MaterializeAsync(
    PlanNodePtr subquery, const Executor& executor, MaterializeOptions mopts) {
  {
    MutexLock lock(mu_);
    ++async_inflight_;
  }
  ThreadPool& pool = options_.pool != nullptr ? *options_.pool : DefaultPool();
  const Executor* exec = &executor;
  return pool.Submit(
      [this, subquery = std::move(subquery), exec, mopts]() mutable -> Status {
        GlobalViewStore().RecordAsyncBuild();
        Result<const MaterializedView*> r =
            Materialize(std::move(subquery), *exec, mopts);
        MutexLock lock(mu_);
        if (--async_inflight_ == 0) idle_cv_.NotifyAll();
        return r.ok() ? Status::OK() : r.status();
      });
}

void MaterializedViewStore::WaitIdle() const {
  MutexLock lock(mu_);
  // avcheck:allow(blocking-under-lock): CondVar::Wait releases mu_
  // while parked; blocking until builds drain is this method's purpose.
  while (async_inflight_ > 0) idle_cv_.Wait(mu_);
}

const MaterializedView* MaterializedViewStore::FindByKey(
    const std::string& canonical_key) const {
  MutexLock lock(mu_);
  auto it = by_key_.find(canonical_key);
  return it == by_key_.end() ? nullptr : &by_id_.at(it->second).view;
}

const MaterializedView* MaterializedViewStore::FindById(int64_t id) const {
  MutexLock lock(mu_);
  auto it = by_id_.find(id);
  if (it == by_id_.end() || it->second.doomed) return nullptr;
  return &it->second.view;
}

Status MaterializedViewStore::Drop(int64_t id) {
  MutexLock lock(mu_);
  auto it = by_id_.find(id);
  if (it == by_id_.end() || it->second.doomed) {
    return Status::NotFound("no such view");
  }
  return DoomLocked(it);
}

Status MaterializedViewStore::Clear() {
  MutexLock lock(mu_);
  std::vector<int64_t> live;
  for (const auto& [id, entry] : by_id_) {
    if (!entry.doomed) live.push_back(id);
  }
  for (int64_t id : live) {
    AV_RETURN_NOT_OK(DoomLocked(by_id_.find(id)));
  }
  return Status::OK();
}

uint64_t MaterializedViewStore::BeginSwap() {
  MutexLock lock(mu_);
  staged_generation_ = std::max(staged_generation_, generation_) + 1;
  return staged_generation_;
}

Status MaterializedViewStore::CommitSwap(uint64_t generation) {
  {
    MutexLock lock(mu_);
    if (generation <= generation_) {
      return Status::InvalidArgument(
          "swap generation is not newer than current");
    }
    if (log_) {
      ViewLogRecord record;
      record.kind = ViewLogRecord::Kind::kCheckpoint;
      record.generation = generation;
      record.next_id = next_id_;
      // avcheck:allow(blocking-under-lock): WAL append under mu_ is the
      // commit point — the generation bump and its checkpoint record
      // must be atomic w.r.t. concurrent swaps and crash recovery.
      AV_RETURN_NOT_OK(log_->Append(record));
    }
    generation_ = generation;
    std::vector<int64_t> retired;
    for (const auto& [id, entry] : by_id_) {
      if (!entry.doomed && entry.view.generation < generation) {
        retired.push_back(id);
      }
    }
    for (int64_t id : retired) {
      AV_RETURN_NOT_OK(DoomLocked(by_id_.find(id)));
    }
  }
  // Outside mu_: every rewrite cached under an older generation is now
  // stale wholesale. Serving threads racing this sweep either looked up
  // the old generation (their pins keep retired views alive) or the new
  // one (a miss — the old entries are unreachable regardless of when
  // the sweep gets to them).
  rewrite_cache_.InvalidateBefore(generation);
  return Status::OK();
}

size_t MaterializedViewStore::size() const {
  MutexLock lock(mu_);
  size_t live = 0;
  for (const auto& [_, entry] : by_id_) {
    if (!entry.doomed) ++live;
  }
  return live;
}

uint64_t MaterializedViewStore::bytes_used() const {
  MutexLock lock(mu_);
  return bytes_used_;
}

uint64_t MaterializedViewStore::current_generation() const {
  MutexLock lock(mu_);
  return generation_;
}

double MaterializedViewStore::TotalOverhead(const Pricing& pricing) const {
  MutexLock lock(mu_);
  double total = 0.0;
  for (const auto& [_, entry] : by_id_) {
    if (entry.doomed) continue;
    total += pricing.StorageFee(entry.view.byte_size) +
             pricing.QueryCost(entry.view.build_cost);
  }
  return total;
}

Status MaterializedViewStore::Checkpoint() const {
  MutexLock lock(mu_);
  if (!log_) return Status::InvalidArgument("store has no WAL configured");
  std::vector<ViewLogRecord> records;
  ViewLogRecord header;
  header.kind = ViewLogRecord::Kind::kCheckpoint;
  header.generation = generation_;
  header.next_id = next_id_;
  records.push_back(header);
  for (const auto& [_, entry] : by_id_) {
    if (!entry.doomed) records.push_back(MaterializeRecord(entry.view));
  }
  // avcheck:allow(blocking-under-lock): the checkpoint must snapshot a
  // frozen entry map; writing it under mu_ is the whole point of the
  // stop-the-world compaction (builds are quiesced by the caller).
  return ViewStateLog::WriteCheckpoint(log_->path(), records);
}

Status MaterializedViewStore::RematerializeRecovered(
    const ViewLogRecord& record, PlanNodePtr plan, const Executor& executor) {
  AV_FAILPOINT_STATUS("viewstore.rematerialize");
  // Build outside the lock, like Materialize; recovery rebuilds can run
  // concurrently on the pool.
  Result<ExecResult> built = executor.Execute(*plan);
  if (!built.ok()) return built.status();
  ExecResult result = std::move(built).value();
  MutexLock lock(mu_);
  if (by_id_.count(record.id) != 0) {
    return Status::AlreadyExists("recovered view id already present");
  }
  MaterializedView view;
  view.id = record.id;
  view.table_name = "__mv_" + std::to_string(view.id);
  view.plan = std::move(plan);
  view.canonical_key = record.canonical_key;
  view.byte_size = result.table.ByteSize();
  view.build_cost = result.cost;
  view.utility = record.utility;
  view.generation = record.generation;
  // Recovered views still honour the budget; their committed scores
  // compete on the same utility-per-byte scale as fresh admissions.
  AV_RETURN_NOT_OK(EvictToFitLocked(view.byte_size));
  AV_RETURN_NOT_OK(
      db_->AddMaterialized(view.table_name, std::move(result.table)));
  bytes_used_ += view.byte_size;
  auto [it, inserted] = by_id_.emplace(view.id, Entry{std::move(view), 0, false});
  by_key_.emplace(it->second.view.canonical_key, it->first);
  (void)inserted;
  index_.Insert(it->second.view);
  GlobalViewStore().RecordRecoveredView();
  return Status::OK();
}

Result<RecoveryReport> MaterializedViewStore::Recover(
    const Executor& executor,
    const std::function<PlanNodePtr(const std::string&)>& resolve,
    bool background) {
  if (!log_) return Status::InvalidArgument("store has no WAL configured");
  RecoveryReport report;
  AV_ASSIGN_OR_RETURN(ViewStateLog::ReplayResult replay,
                      ViewStateLog::Replay(log_->path()));
  report.replayed_records = replay.records.size();
  report.torn_tail = replay.torn_tail;

  // Fold the record sequence into the committed state. MATERIALIZE
  // upserts by id (a re-tag is an upsert under a newer generation);
  // DROP removes; CHECKPOINT advances the current generation and — like
  // CommitSwap — retires every strictly older live view, completing a
  // swap the crash may have interrupted.
  uint64_t generation = 1;
  int64_t next_id = 1;
  std::map<int64_t, ViewLogRecord> committed;
  std::map<std::string, int64_t> committed_keys;
  for (const ViewLogRecord& record : replay.records) {
    switch (record.kind) {
      case ViewLogRecord::Kind::kMaterialize: {
        if (auto key_it = committed_keys.find(record.canonical_key);
            key_it != committed_keys.end() && key_it->second != record.id) {
          committed.erase(key_it->second);  // defensive: key superseded
        }
        committed[record.id] = record;
        committed_keys[record.canonical_key] = record.id;
        next_id = std::max(next_id, record.id + 1);
        break;
      }
      case ViewLogRecord::Kind::kDrop: {
        if (auto it = committed.find(record.id); it != committed.end()) {
          committed_keys.erase(it->second.canonical_key);
          committed.erase(it);
        }
        break;
      }
      case ViewLogRecord::Kind::kCheckpoint: {
        generation = std::max(generation, record.generation);
        next_id = std::max(next_id, record.next_id);
        for (auto it = committed.begin(); it != committed.end();) {
          if (it->second.generation < generation) {
            committed_keys.erase(it->second.canonical_key);
            it = committed.erase(it);
          } else {
            ++it;
          }
        }
        break;
      }
    }
  }
  report.committed_views = committed.size();

  {
    MutexLock lock(mu_);
    if (!by_id_.empty()) {
      return Status::InvalidArgument("Recover requires an empty store");
    }
    generation_ = generation;
    staged_generation_ = generation;
    next_id_ = next_id;
  }

  // Compact before rebuilding: the rewritten log holds exactly the
  // committed state (torn tails gone), so a crash during the rebuilds
  // below replays to the same set again.
  std::vector<ViewLogRecord> compacted;
  ViewLogRecord header;
  header.kind = ViewLogRecord::Kind::kCheckpoint;
  header.generation = generation;
  header.next_id = next_id;
  compacted.push_back(header);
  for (const auto& [_, record] : committed) {
    compacted.push_back(record);
  }
  AV_RETURN_NOT_OK(ViewStateLog::WriteCheckpoint(log_->path(), compacted));

  ThreadPool& pool = options_.pool != nullptr ? *options_.pool : DefaultPool();
  for (const auto& [id, record] : committed) {
    PlanNodePtr plan = resolve(record.canonical_key);
    if (!plan) {
      // Unresolvable (schema drift): drop it from the committed set so
      // it stops resurfacing on every recovery.
      ++report.failed;
      MutexLock lock(mu_);
      ViewLogRecord drop;
      drop.kind = ViewLogRecord::Kind::kDrop;
      drop.id = id;
      // avcheck:allow(blocking-under-lock): recovery-time WAL append
      // under mu_ is the commit point for pruning the dead entry.
      AV_RETURN_NOT_OK(log_->Append(drop));
      continue;
    }
    if (background) {
      {
        MutexLock lock(mu_);
        ++async_inflight_;
      }
      ViewLogRecord rec = record;
      const Executor* exec = &executor;
      pool.Submit([this, rec = std::move(rec), plan = std::move(plan),
                   exec]() mutable {
        GlobalViewStore().RecordAsyncBuild();
        Status s = RematerializeRecovered(rec, std::move(plan), *exec);
        MutexLock lock(mu_);
        if (!s.ok()) {
          AV_LOG(Warning) << "background rematerialization of view " << rec.id
                          << " failed: " << s.ToString();
          ViewLogRecord drop;
          drop.kind = ViewLogRecord::Kind::kDrop;
          drop.id = rec.id;
          // avcheck:allow(blocking-under-lock): WAL append under mu_
          // is the commit point for dropping the failed rebuild.
          if (Status ds = log_->Append(drop); !ds.ok()) {
            AV_LOG(Warning) << "drop record append failed: " << ds.ToString();
          }
        }
        if (--async_inflight_ == 0) idle_cv_.NotifyAll();
      });
      ++report.rematerialized;
    } else {
      Status s = RematerializeRecovered(record, std::move(plan), executor);
      if (s.ok()) {
        ++report.rematerialized;
      } else {
        ++report.failed;
        MutexLock lock(mu_);
        ViewLogRecord drop;
        drop.kind = ViewLogRecord::Kind::kDrop;
        drop.id = id;
        // avcheck:allow(blocking-under-lock): recovery-time WAL append
        // under mu_ is the commit point for dropping the failed build.
        AV_RETURN_NOT_OK(log_->Append(drop));
      }
    }
  }
  return report;
}

}  // namespace autoview
