#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "plan/plan.h"
#include "subquery/extractor.h"
#include "util/status.h"

namespace autoview {

/// \brief A cluster of semantically equivalent subqueries (§III).
struct SubqueryCluster {
  std::string canonical_key;
  /// Member count: occurrences of the key across the workload.
  size_t occurrence_count = 0;
  /// The member chosen as the candidate subquery (the one with the least
  /// overhead), per the paper's pre-process step. Set for candidate
  /// clusters only; null for the others, which no caller reads.
  PlanNodePtr candidate;
  /// Distinct queries containing a member of this cluster, ascending.
  std::vector<size_t> query_indices;

  /// Equivalent pairs contributed by this cluster: C(n, 2).
  size_t num_equivalent_pairs() const {
    return occurrence_count * (occurrence_count - 1) / 2;
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

/// \brief Clusters equivalent subqueries of a whole workload and derives
/// the candidate set: the batch entry point over ClustererSession.
///
/// Equivalence detection substitutes EQUITAS [45] with canonical-form
/// comparison (see plan/canonical.h).
///
/// AnalyzeStreaming runs three steps, all deterministic under any
/// thread count:
///  1. Extraction, parallel across Options::pool in chunks of at most
///     `extract_chunk` queries: each task plans its query through
///     `query_fn`, keys it with one SubtreeCanonicalKeys walk and costs
///     each subquery. The plans die with the task.
///  2. The records fold into a ClustererSession in query order, so
///     clusters, counts and argmin members match a sequential run.
///  3. Snapshot(), which re-derives the candidates' plans in parallel
///     and detects candidate overlap (DESIGN.md §10).
///
/// Memory is O(extract_chunk plans + clusters' member records + |Z|
/// plans): no plan of a non-candidate cluster is ever retained.
class SubqueryClusterer {
 public:
  struct Options {
    ExtractorOptions extractor;
    /// A cluster becomes a candidate when members appear in at least
    /// this many distinct queries (sharing is what creates benefit).
    size_t min_sharing = 2;
    /// Executor for the parallel phases; null => DefaultPool().
    ThreadPool* pool = nullptr;
    /// Queries whose extracted plans may be in flight at once during
    /// the extraction phase (peak transient memory is O(extract_chunk),
    /// not O(|Q|)).
    size_t extract_chunk = 1024;
  };

  /// Optional cost oracle used to pick each cluster's least-overhead
  /// member as the candidate; when absent the smallest plan wins. Must
  /// be pure: extraction tasks call it concurrently.
  using CostFn = std::function<double(const PlanNode&)>;

  /// Plan source: returns query `qi`'s plan (nullptr to skip). Must be
  /// pure and is called concurrently for distinct indices.
  /// AnalyzeStreaming calls it once per query, plus once more for each
  /// query holding a candidate's least-cost member (Snapshot re-derives
  /// that plan); BuildStreamingProblem calls it again for each
  /// associated query.
  using QueryFn = std::function<PlanNodePtr(size_t)>;

  SubqueryClusterer() : options_() {}
  explicit SubqueryClusterer(Options options, CostFn cost_fn = nullptr)
      : options_(options), cost_fn_(std::move(cost_fn)) {}

  /// Extraction + equivalence clustering + overlap detection over
  /// queries 0..num_queries-1 (see the class comment).
  WorkloadAnalysis AnalyzeStreaming(size_t num_queries,
                                    const QueryFn& query_fn) const;

 private:
  Options options_;
  CostFn cost_fn_;
};

/// Overlap per Definition 5 evaluated on canonical subtree keys, so two
/// equivalent-but-structurally-different subplans still register their
/// common subtrees. Re-keys both plans per call, so it is used only by
/// oracles: the all-pairs rebuild behind OnlineAdvisor::
/// DenseOracleProblem and the tests' all-pairs overlap scan. The
/// clusterer and the advisor's ingest find overlap partners through
/// subtree-key indexes instead.
bool CanonicalPlansOverlap(const PlanNode& a, const PlanNode& b);

/// \brief The one clustering state, for a whole workload (batch) or a
/// live sliding window (online).
///
/// Queries arrive with ascending ids and may retire in any order. Per
/// cluster the session keeps the members as (query id, extraction
/// ordinal, cost) in arrival order — so a query's members form one
/// contiguous run and its live occurrence count is that run's length —
/// the number of distinct live queries, and which member is the argmin:
/// the least cost, ties to the earliest member.
///
/// No member plan is retained. A candidate's plan is re-derived on
/// demand as the ordinal-th extracted subquery of `query_fn(query id)`
/// (a plan is a pure function of its SQL) and cached only while the
/// cluster stays a candidate with the same argmin member: Candidate()
/// derives it when a cluster has crossed `min_sharing` or its argmin
/// changed, and Snapshot() derives the uncached ones in parallel.
///
/// Not internally synchronized: the owner (OnlineAdvisor) serializes
/// access, Candidate() and Snapshot() included.
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
    /// The argmin member's plan; null when `query_fn` cannot supply it.
    PlanNodePtr plan;
    std::vector<uint64_t> query_ids;  ///< live queries containing it, asc
  };

  /// One extracted subquery as the fold consumes it.
  struct Subquery {
    std::string key;
    double cost = 0.0;
  };

  /// `query_fn` maps a live query id to its plan (see the class
  /// comment); without it candidates have null plans.
  explicit ClustererSession(SubqueryClusterer::Options options,
                            SubqueryClusterer::CostFn cost_fn = nullptr,
                            SubqueryClusterer::QueryFn query_fn = nullptr);

  /// `plan`'s subqueries in extraction order, keyed by one
  /// SubtreeCanonicalKeys walk and costed. Safe to call concurrently.
  std::vector<Subquery> Extract(const PlanNodePtr& plan) const;

  /// Adds query `query_id`, whose id must exceed every live id, and
  /// folds its subqueries; `effects` (optional) receives the
  /// candidate-set delta. IngestQuery extracts `plan` first.
  Status IngestQuery(uint64_t query_id, const PlanNodePtr& plan,
                     MutationEffects* effects = nullptr);
  Status IngestSubqueries(uint64_t query_id, std::vector<Subquery> subqueries,
                          MutationEffects* effects = nullptr);

  /// Removes a live query and every occurrence it contributed (no
  /// re-extraction: the session remembers the query's clusters).
  Status RetireQuery(uint64_t query_id, MutationEffects* effects = nullptr);

  /// Live query ids, ascending.
  std::vector<uint64_t> LiveQueryIds() const;
  size_t num_live_queries() const { return queries_.size(); }

  /// Canonical keys of `query_id`'s extracted subqueries, in extraction
  /// order (duplicates preserved — one entry per occurrence); empty when
  /// the query is not live. The views stay valid until the next
  /// mutation. The advisor uses this to find which existing candidate
  /// columns a freshly ingested row intersects.
  std::vector<std::string_view> QueryKeys(uint64_t query_id) const;

  /// Current candidate clusters (>= min_sharing distinct queries),
  /// ascending canonical key.
  std::vector<std::string> CandidateKeys() const;

  /// Lookup of one current candidate; nullopt when `key` is not a
  /// candidate (unknown, or below min_sharing).
  std::optional<CandidateInfo> Candidate(const std::string& key) const;

  /// Cumulative candidate-set churn (adds + removes + replans) since
  /// construction — the drift signal for the advisor's trigger policy.
  uint64_t churn_events() const { return churn_events_; }

  /// The WorkloadAnalysis of the live window, with query indices as
  /// positions in LiveQueryIds() and clusters in first-appearance order
  /// over that list. Re-derives uncached candidate plans and runs
  /// overlap detection, so it is O(batch tail), not O(1).
  WorkloadAnalysis Snapshot() const;

 private:
  /// One occurrence: the ordinal-th subquery of query `query_id`.
  struct Member {
    uint64_t query_id = 0;
    size_t ordinal = 0;  ///< position in Extract(query)'s output
    double cost = 0.0;
  };
  using MemberId = std::pair<uint64_t, size_t>;  ///< (query id, ordinal)
  struct ClusterState {
    std::vector<Member> members;  ///< arrival order: ascending (id, ordinal)
    size_t num_queries = 0;       ///< distinct live queries among members
    size_t argmin = 0;            ///< index into members
    /// The argmin member's plan, cached while the cluster is a candidate
    /// and the argmin member stays; otherwise null.
    mutable PlanNodePtr plan;
  };
  using Clusters = std::unordered_map<std::string, ClusterState>;
  /// A cluster one mutation touched, with its state before the mutation.
  struct Touched {
    Clusters::value_type* entry = nullptr;
    bool was_candidate = false;
    MemberId argmin;
  };

  bool IsCandidate(const ClusterState& cluster) const {
    return cluster.num_queries > 0 &&
           cluster.num_queries >= options_.min_sharing;
  }
  static MemberId ArgminId(const ClusterState& cluster);
  /// Distinct live query ids among the members, ascending.
  static std::vector<uint64_t> QueriesOf(const ClusterState& cluster);

  /// Reports the touched clusters' candidate-set changes in ascending
  /// key order, drops plans that went stale and erases emptied clusters.
  void Settle(std::vector<Touched>* touched, MutationEffects* effects);

  /// The extracted subqueries of query_fn_(query_id) (empty when there
  /// is no plan); a member's plan is the one at its ordinal.
  std::vector<PlanNodePtr> Rederive(uint64_t query_id) const;

  SubqueryClusterer::Options options_;
  SubqueryClusterer::CostFn cost_fn_;
  SubqueryClusterer::QueryFn query_fn_;
  /// Keyed by hash; orderings that are part of the API are sorted on
  /// demand (CandidateKeys, MutationEffects, Snapshot).
  Clusters clusters_;
  /// Live query id -> the clusters of its subqueries in extraction
  /// order (entries of clusters_, whose nodes are stable).
  std::map<uint64_t, std::vector<Clusters::value_type*>> queries_;
  uint64_t churn_events_ = 0;
};

}  // namespace autoview
