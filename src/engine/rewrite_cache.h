#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "plan/plan.h"
#include "util/annotations.h"

namespace autoview {

/// \brief Sharded, generation-keyed cache of rewrite results, so a
/// serving loop that sees the same query shape repeatedly pays the
/// indexed plan walk once per (query, view-set generation) instead of
/// once per request.
///
/// Keying and invalidation rules:
///   * The lookup key is the *root canonical key string* of the input
///     plan plus the store generation the rewrite was computed under.
///     Exact string keys (not hashes) rule out collision aliasing —
///     two distinct queries can never serve each other's rewrite.
///   * CommitSwap bumps the store generation and calls
///     InvalidateBefore(new_gen), which drops every entry from an older
///     generation wholesale; the online advisor's hot swaps therefore
///     can never serve a stale rewrite.
///   * Within a generation, a cached plan can still reference a view
///     evicted *after* insertion. Entries carry the substituted view
///     ids; Rewriter::RewriteServing re-pins them on every hit and
///     erases the entry when pinning fails (self-healing miss).
///
/// PlanNodes are immutable and shared by shared_ptr, so handing the same
/// rewritten plan to many concurrent requests is safe.
///
/// Thread-safe; per-shard mutexes keep serving threads lock-light. No
/// lock is ever acquired under a shard mutex, and the store acquires
/// shard mutexes only while NOT holding its own (CommitSwap invalidates
/// after releasing the store mutex), keeping the lock order acyclic.
class RewriteCache {
 public:
  /// One cached rewrite: the output plan, the distinct-views-substituted
  /// count RewriteAllIndexed reported, and the ids of the views the plan
  /// scans (for re-pinning on hit; empty when no substitution applied).
  struct CachedRewrite {
    PlanNodePtr plan;
    size_t num_substitutions = 0;
    std::vector<int64_t> view_ids;
  };

  /// `capacity_per_shard` bounds each shard FIFO (oldest insert evicted
  /// first); 0 means unbounded.
  explicit RewriteCache(size_t num_shards = kDefaultShards,
                        size_t capacity_per_shard = kDefaultCapacityPerShard);

  RewriteCache(const RewriteCache&) = delete;
  RewriteCache& operator=(const RewriteCache&) = delete;

  /// Copies the entry for (`canonical_key`, `generation`) into `*out`
  /// and returns true; false when absent. Does NOT touch the global
  /// hit/miss counters — the store-level wrapper owns those, since a
  /// raw cache hit still has to survive re-pinning to count as a hit.
  bool Lookup(const std::string& canonical_key, uint64_t generation,
              CachedRewrite* out) const;

  /// Inserts (or replaces) the entry for (`canonical_key`, `generation`).
  void Insert(const std::string& canonical_key, uint64_t generation,
              CachedRewrite entry);

  /// Drops the entry for (`canonical_key`, `generation`) if present
  /// (hit healing after a failed re-pin).
  void Erase(const std::string& canonical_key, uint64_t generation);

  /// Drops every entry whose generation is < `generation`; records one
  /// invalidation sweep and the number of entries dropped in
  /// GlobalRewriteCache().
  void InvalidateBefore(uint64_t generation);

  /// Drops every entry.
  void Clear();

  /// Total cached entries across all shards (diagnostics/tests).
  size_t size() const;

  static constexpr size_t kDefaultShards = 16;
  static constexpr size_t kDefaultCapacityPerShard = 512;

 private:
  struct Key {
    std::string canonical_key;
    uint64_t generation = 0;
    bool operator==(const Key& other) const {
      return generation == other.generation &&
             canonical_key == other.canonical_key;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<std::string>{}(k.canonical_key) ^
             (std::hash<uint64_t>{}(k.generation) * 0x9e3779b97f4a7c15ULL);
    }
  };

  struct Shard {
    mutable Mutex mu;
    std::unordered_map<Key, CachedRewrite, KeyHash> entries
        AV_GUARDED_BY(mu);
    // Insert order for FIFO capacity eviction; may hold keys already
    // erased from `entries` (stale pops are skipped).
    std::deque<Key> fifo AV_GUARDED_BY(mu);
  };

  Shard& ShardFor(const std::string& canonical_key) const;

  // Shard array is sized once at construction and never reallocated, so
  // the Shard objects (and their mutexes) have stable addresses.
  mutable std::vector<Shard> shards_;
  const size_t capacity_per_shard_;
};

}  // namespace autoview
