#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/annotations.h"

namespace autoview {

struct MaterializedView;

/// \brief Sharded hash index from canonical plan key to the candidate
/// materialized views for that key — the serving-path replacement for
/// scanning every selected view per rewrite.
///
/// `Rewriter::RewriteAllIndexed` walks a plan once bottom-up, computes
/// each node's canonical key once, and probes this index: O(plan nodes)
/// probes instead of the per-view loop's O(plan nodes × |views|)
/// canonical-key recomputation. An index is exactly the set of views a
/// rewrite may use: the store's for serving, or a small one a caller
/// builds for one candidate or one query's assigned views (the ground
/// truth and Table V). MaterializedViewStore maintains its index
/// across installs, evictions, drops, and generation swaps (insert on
/// install, erase on doom), so the index always reflects the live
/// (non-doomed) view set.
///
/// Probes copy value types only (id + backing table name) — no pointer
/// into store-owned memory ever escapes a shard lock, so a concurrent
/// physical drop can never dangle a probe result. Callers that go on to
/// *execute* a rewritten plan must still pin the substituted views
/// (MaterializedViewStore::PinViews) before executing, because the
/// backing table can be evicted between the probe and the scan.
///
/// Thread-safe; sharded so concurrent serving probes do not contend on
/// one lock (and never on the store mutex). Lock order: a store that
/// mutates the index does so while holding its own mutex, so the
/// acquired-before order is store mutex -> shard mutex; probes take only
/// the shard mutex and nothing is ever acquired under it.
class ViewIndex {
 public:
  /// One candidate view for a canonical key: everything a rewrite needs,
  /// by value. Candidates for a key are kept in ascending id order —
  /// the same order PinLive() lists views — which makes the indexed
  /// rewrite bit-identical to the sequential per-view oracle loop.
  struct Candidate {
    int64_t id = 0;
    std::string table_name;
  };

  explicit ViewIndex(size_t num_shards = kDefaultShards);

  ViewIndex(const ViewIndex&) = delete;
  ViewIndex& operator=(const ViewIndex&) = delete;

  /// Indexes `view` under its canonical key (idempotent per id).
  void Insert(const MaterializedView& view);

  /// As Insert, for callers that already pulled the fields apart.
  void InsertKeyed(const std::string& canonical_key, int64_t id,
                   const std::string& table_name);

  /// Removes view `id` from `canonical_key`'s candidate list (no-op when
  /// absent); drops the key's bucket when it empties.
  void Erase(const std::string& canonical_key, int64_t id);

  /// Drops every entry.
  void Clear();

  /// Copies the candidates for `canonical_key` (ascending id) into
  /// `*out`, clearing it first. Returns true when any candidate exists.
  bool Probe(const std::string& canonical_key,
             std::vector<Candidate>* out) const;

  /// Total candidate entries across all shards (diagnostics/tests).
  size_t size() const;

  static constexpr size_t kDefaultShards = 16;

 private:
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<std::string, std::vector<Candidate>> buckets
        AV_GUARDED_BY(mu);
  };

  Shard& ShardFor(const std::string& canonical_key) const;

  // Shard array is sized once at construction and never reallocated, so
  // the Shard objects (and their mutexes) have stable addresses.
  mutable std::vector<Shard> shards_;
};

}  // namespace autoview
