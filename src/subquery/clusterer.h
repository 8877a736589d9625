#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "plan/plan.h"
#include "subquery/extractor.h"
#include "util/status.h"

namespace autoview {

/// \brief One subquery occurrence inside a workload query.
struct SubqueryOccurrence {
  size_t query_index = 0;  ///< index into the analyzed workload
  PlanNodePtr plan;        ///< the subplan
};

/// \brief A cluster of semantically equivalent subqueries (§III).
struct SubqueryCluster {
  std::string canonical_key;
  /// All members with their plans. Populated by Analyze(); the streaming
  /// path leaves it empty (it never retains per-occurrence plans) and
  /// records the count in `occurrence_count` instead.
  std::vector<SubqueryOccurrence> occurrences;
  /// Member count; authoritative when `occurrences` is empty.
  size_t occurrence_count = 0;
  /// The cluster member chosen as the candidate subquery (the one with
  /// the least overhead), per the paper's pre-process step.
  PlanNodePtr candidate;
  /// Distinct queries containing a member of this cluster, ascending.
  std::vector<size_t> query_indices;

  size_t num_occurrences() const {
    return occurrences.empty() ? occurrence_count : occurrences.size();
  }
  /// Equivalent pairs contributed by this cluster: C(n, 2).
  size_t num_equivalent_pairs() const {
    const size_t n = num_occurrences();
    return n * (n - 1) / 2;
  }
};

/// \brief Result of the full pre-process pipeline over a workload.
struct WorkloadAnalysis {
  size_t num_queries = 0;
  size_t num_subqueries = 0;        ///< total extracted occurrences
  size_t num_equivalent_pairs = 0;  ///< Table I: #equivalent pairs
  std::vector<SubqueryCluster> clusters;  ///< all equivalence clusters

  /// Indices (into `clusters`) of the candidate clusters — those shared
  /// by at least `min_sharing` distinct queries. |Z| of Table I.
  std::vector<size_t> candidates;

  /// Query indices that can use at least one candidate view. |Q|.
  std::vector<size_t> associated_queries;

  /// Candidate-pair overlap flags: overlap_pairs[j] lists k > j with
  /// overlapping candidate subqueries (Definition 5). The x_{jk} of §V.
  std::vector<std::vector<size_t>> overlapping;

  size_t num_overlapping_pairs() const {
    size_t n = 0;
    for (const auto& row : overlapping) n += row.size();
    return n;
  }
};

/// \brief Clusters equivalent subqueries and derives the candidate set.
///
/// Equivalence detection substitutes EQUITAS [45] with canonical-form
/// comparison (see plan/canonical.h).
///
/// The two expensive phases — per-query subquery extraction with
/// canonical-key computation (one SubtreeCanonicalKeys walk per query
/// plan), and candidate-overlap detection — run across Options::pool.
/// Both are deterministic under any thread count: extraction results
/// are merged on the calling thread in query order (so cluster ids
/// match a sequential run), and overlap rows are sorted after the
/// parallel lookups.
///
/// Memory bounds (DESIGN.md §10): extraction is chunked so at most
/// `extract_chunk` queries' plans are in flight; overlap detection
/// (kKeyIndex) indexes the candidates' cluster keys, which are unique,
/// and looks up every proper-subtree key of each candidate plan in it,
/// so it is exact without a verification step and never renders keys
/// for all |Z|²/2 pairs. Its working set is the |Z|-entry index plus one
/// plan's subtree keys per task. The exhaustive pairwise scan survives
/// as the kAllPairs oracle; both produce identical overlap tables.
class SubqueryClusterer {
 public:
  /// Candidate-overlap detection algorithm.
  enum class OverlapAlgorithm {
    /// Exact lookup of each candidate's subtree keys in an index of the
    /// candidates' cluster keys (default).
    kKeyIndex,
    /// The exhaustive pairwise scan (oracle for tests).
    kAllPairs,
  };

  struct Options {
    ExtractorOptions extractor;
    /// A cluster becomes a candidate when members appear in at least
    /// this many distinct queries (sharing is what creates benefit).
    size_t min_sharing = 2;
    /// Executor for the parallel phases; null => DefaultPool().
    ThreadPool* pool = nullptr;
    /// Overlap detection algorithm; results are identical either way.
    OverlapAlgorithm overlap = OverlapAlgorithm::kKeyIndex;
    /// Queries whose extracted plans may be in flight at once during
    /// the extraction phase (peak transient memory is O(extract_chunk),
    /// not O(|Q|)).
    size_t extract_chunk = 1024;
  };

  /// Optional cost oracle used to pick each cluster's least-overhead
  /// member as the candidate; when absent the smallest plan wins.
  using CostFn = std::function<double(const PlanNode&)>;

  /// Plan source for the streaming paths: returns query `qi`'s plan
  /// (nullptr to skip). Called concurrently for distinct indices;
  /// AnalyzeStreaming calls it once per query, and BuildStreamingProblem
  /// calls it again for each associated query.
  using QueryFn = std::function<PlanNodePtr(size_t)>;

  SubqueryClusterer() : options_() {}
  explicit SubqueryClusterer(Options options, CostFn cost_fn = nullptr)
      : options_(options), cost_fn_(std::move(cost_fn)) {}

  /// Runs extraction + equivalence clustering + overlap detection.
  WorkloadAnalysis Analyze(const std::vector<PlanNodePtr>& queries) const;

  /// Memory-bounded one-pass variant for paper-scale workloads: streams
  /// queries in chunks (`query_fn` once per query), keeping only
  /// per-cluster aggregates (key, count, query indices, and the current
  /// argmin subplan with its cost) while query plans stay transient.
  /// Peak memory is O(extract_chunk + clusters), never O(all occurrence
  /// plans): each cluster holds one subplan, as its candidate.
  ///
  /// Produces the same clusters (order, keys, counts, query indices,
  /// candidates, overlap table) as Analyze() for a pure cost oracle —
  /// occurrences themselves are not retained (see SubqueryCluster).
  WorkloadAnalysis AnalyzeStreaming(size_t num_queries,
                                    const QueryFn& query_fn) const;

 private:
  Options options_;
  CostFn cost_fn_;
};

/// Overlap per Definition 5 evaluated on canonical subtree keys, so two
/// equivalent-but-structurally-different subplans still register their
/// common subtrees. Re-keys both plans per call, so it is used only by
/// oracles: the batch clusterer's kAllPairs scan and the all-pairs
/// rebuild behind OnlineAdvisor::DenseOracleProblem. The batch
/// clusterer (kKeyIndex) and the advisor's ingest find overlap partners
/// through subtree-key indexes instead.
bool CanonicalPlansOverlap(const PlanNode& a, const PlanNode& b);

namespace internal {
/// Derives candidates / associated queries / overlap table from fully
/// built clusters — the shared tail of Analyze, AnalyzeStreaming, and
/// ClustererSession::Snapshot.
void FinishAnalysis(const SubqueryClusterer::Options& options,
                    ThreadPool& pool, WorkloadAnalysis* analysis);
}  // namespace internal

/// \brief Incremental clustering over a live (sliding-window) workload.
///
/// The batch clusterer answers "cluster these N queries"; the session
/// answers "query q arrived / retired" while keeping exactly the state
/// the batch pass would have: per-cluster members keyed by
/// (query id, extraction ordinal), occurrence counts per query, and the
/// least-cost candidate member under the same strict-< tie-break. The
/// batch result stays the bit-identity oracle: Snapshot() over the live
/// window compares field-for-field with Analyze() over the same plans
/// in ascending-id order (clusters re-emerge in first-appearance order,
/// query indices as positions in the sorted live-id list).
///
/// Members are retained (plan + cost per occurrence), so memory is
/// O(live occurrences) — sized for a sliding window, not the unbounded
/// history AnalyzeStreaming's one-pass aggregate path covers.
///
/// Not internally synchronized: the owner (OnlineAdvisor) serializes
/// access.
class ClustererSession {
 public:
  /// Candidate-set deltas of one Ingest/Retire, in deterministic order
  /// (ascending canonical key). A key appears in at most one vector.
  struct MutationEffects {
    std::vector<std::string> candidates_added;    ///< crossed min_sharing up
    std::vector<std::string> candidates_removed;  ///< crossed min_sharing down
    std::vector<std::string> candidates_replanned;  ///< argmin member changed

    bool empty() const {
      return candidates_added.empty() && candidates_removed.empty() &&
             candidates_replanned.empty();
    }
  };

  /// A current candidate cluster as the advisor consumes it.
  struct CandidateInfo {
    std::string key;
    PlanNodePtr plan;                 ///< least-cost member
    std::vector<uint64_t> query_ids;  ///< live queries containing it, asc
  };

  explicit ClustererSession(SubqueryClusterer::Options options,
                            SubqueryClusterer::CostFn cost_fn = nullptr);

  /// Adds query `query_id` (ids must be unique among live queries; the
  /// advisor uses arrival order, so ascending ids = arrival order).
  /// Extracts and clusters its subqueries; `effects` (optional)
  /// receives the candidate-set delta.
  Status IngestQuery(uint64_t query_id, const PlanNodePtr& plan,
                     MutationEffects* effects = nullptr);

  /// Removes a live query and every occurrence it contributed (no
  /// re-extraction: the session remembers the query's keys).
  Status RetireQuery(uint64_t query_id, MutationEffects* effects = nullptr);

  /// Live query ids, ascending.
  std::vector<uint64_t> LiveQueryIds() const;
  size_t num_live_queries() const { return queries_.size(); }

  /// Canonical keys of `query_id`'s extracted subqueries, in extraction
  /// order (duplicates preserved — one entry per occurrence); nullptr
  /// when the query is not live. The advisor uses this to find which
  /// existing candidate columns a freshly ingested row intersects.
  const std::vector<std::string>* QueryKeys(uint64_t query_id) const;

  /// Current candidate clusters (>= min_sharing distinct queries),
  /// ascending canonical key.
  std::vector<std::string> CandidateKeys() const;

  /// Lookup of one current candidate; nullopt when `key` is not a
  /// candidate (unknown, or below min_sharing).
  std::optional<CandidateInfo> Candidate(const std::string& key) const;

  /// Cumulative candidate-set churn (adds + removes + replans) since
  /// construction — the drift signal for the advisor's trigger policy.
  uint64_t churn_events() const { return churn_events_; }

  /// The WorkloadAnalysis of the live window, bit-comparable to
  /// Analyze() over LiveQueryIds()'s plans in that order (occurrences
  /// vectors excepted — like AnalyzeStreaming, the session reports
  /// counts). Runs overlap detection, so it is O(batch tail), not O(1).
  WorkloadAnalysis Snapshot() const;

 private:
  struct Member {
    double cost = 0.0;
    PlanNodePtr plan;
  };
  struct ClusterState {
    /// (query id, extraction ordinal) -> member; map order is the batch
    /// traversal order, so argmin recomputes reproduce the batch
    /// tie-break exactly.
    std::map<std::pair<uint64_t, size_t>, Member> members;
    /// Live occurrence count per query; size() = distinct queries.
    std::map<uint64_t, size_t> per_query;
    PlanNodePtr candidate;  ///< least-cost member (strict-< tie-break)
  };

  bool IsCandidate(const ClusterState& cluster) const {
    return cluster.per_query.size() >= options_.min_sharing;
  }

  /// Recomputes `cluster.candidate`; true when the plan changed.
  bool RecomputeCandidate(ClusterState* cluster);

  SubqueryClusterer::Options options_;
  SubqueryClusterer::CostFn cost_fn_;
  std::map<std::string, ClusterState> clusters_;
  /// query id -> its subquery keys in extraction order (retire replays
  /// these instead of re-extracting).
  std::map<uint64_t, std::vector<std::string>> queries_;
  uint64_t churn_events_ = 0;
};

}  // namespace autoview
