#include "subquery/clusterer.h"

#include <algorithm>
#include <limits>
#include <set>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "plan/canonical.h"
#include "util/thread_pool.h"

namespace autoview {

bool CanonicalPlansOverlap(const PlanNode& a, const PlanNode& b) {
  // In a plan tree, two matched view regions either nest or are disjoint,
  // so two subqueries conflict exactly when one's plan occurs as a
  // subtree of the other's (s3 contains s1/s2 in Fig. 2).
  const std::string key_a = CanonicalKey(a);
  const std::string key_b = CanonicalKey(b);
  for (const auto& node : a.Subtrees()) {
    if (CanonicalKey(*node) == key_b) return true;
  }
  for (const auto& node : b.Subtrees()) {
    if (CanonicalKey(*node) == key_a) return true;
  }
  return false;
}

namespace {

struct KeyedSubquery {
  PlanNodePtr plan;
  std::string key;
};

/// `query`'s subqueries in extraction order, keyed from one
/// SubtreeCanonicalKeys walk of the whole plan: each subquery reads its
/// key by pre-order position instead of re-rendering its subtree.
std::vector<KeyedSubquery> ExtractKeyed(const SubqueryExtractor& extractor,
                                        const PlanNodePtr& query) {
  std::vector<size_t> positions;
  std::vector<PlanNodePtr> subs = extractor.Extract(query, &positions);
  std::vector<KeyedSubquery> keyed;
  if (subs.empty()) return keyed;
  std::vector<std::string> keys = SubtreeCanonicalKeys(*query);
  keyed.reserve(subs.size());
  for (size_t i = 0; i < subs.size(); ++i) {
    keyed.push_back({std::move(subs[i]), std::move(keys[positions[i]])});
  }
  return keyed;
}

/// Exhaustive pairwise scan (the oracle): task j owns overlapping[j],
/// scanning k > j in order, so the table is independent of scheduling.
std::vector<std::vector<size_t>> ComputeOverlapsAllPairs(
    const std::vector<PlanNodePtr>& plans, ThreadPool& pool) {
  const size_t z = plans.size();
  std::vector<std::vector<size_t>> overlapping(z);
  pool.ParallelFor(0, z, [&](size_t j) {
    for (size_t k = j + 1; k < z; ++k) {
      if (CanonicalPlansOverlap(*plans[j], *plans[k])) {
        overlapping[j].push_back(k);
      }
    }
  });
  return overlapping;
}

/// Exact key index: candidates j and k overlap iff one's cluster key is
/// the key of a proper subtree of the other's plan. Cluster keys are
/// unique, so a lookup from key to candidate needs no verification, and
/// one SubtreeCanonicalKeys walk per candidate finds every candidate it
/// contains. Each pair is filed under its smaller id, then rows are
/// sorted, so the table equals the all-pairs scan's. The working set is
/// the key index (|Z| views into the clusters' keys) plus one plan's
/// subtree keys per task.
std::vector<std::vector<size_t>> ComputeOverlapsKeyIndex(
    const std::vector<PlanNodePtr>& plans,
    const std::vector<std::string_view>& keys, ThreadPool& pool) {
  const size_t z = plans.size();
  std::unordered_map<std::string_view, size_t> candidate_of_key;
  candidate_of_key.reserve(z);
  for (size_t k = 0; k < z; ++k) candidate_of_key.emplace(keys[k], k);

  std::vector<std::vector<size_t>> contained(z);
  pool.ParallelFor(0, z, [&](size_t j) {
    const std::vector<std::string> subtree_keys =
        SubtreeCanonicalKeys(*plans[j]);
    for (size_t i = 1; i < subtree_keys.size(); ++i) {
      const auto it = candidate_of_key.find(subtree_keys[i]);
      if (it != candidate_of_key.end() && it->second != j) {
        contained[j].push_back(it->second);
      }
    }
  });

  std::vector<std::vector<size_t>> overlapping(z);
  for (size_t j = 0; j < z; ++j) {
    for (size_t k : contained[j]) {
      overlapping[std::min(j, k)].push_back(std::max(j, k));
    }
  }
  pool.ParallelFor(0, z, [&](size_t j) {
    auto& row = overlapping[j];
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  });
  return overlapping;
}

}  // namespace

namespace internal {

void FinishAnalysis(const SubqueryClusterer::Options& options,
                    ThreadPool& pool, WorkloadAnalysis* analysis) {
  for (size_t ci = 0; ci < analysis->clusters.size(); ++ci) {
    if (analysis->clusters[ci].query_indices.size() >= options.min_sharing) {
      analysis->candidates.push_back(ci);
    }
  }

  std::set<size_t> associated;
  for (size_t cand : analysis->candidates) {
    for (size_t qi : analysis->clusters[cand].query_indices) {
      associated.insert(qi);
    }
  }
  analysis->associated_queries.assign(associated.begin(), associated.end());

  std::vector<PlanNodePtr> candidate_plans;
  std::vector<std::string_view> candidate_keys;
  candidate_plans.reserve(analysis->candidates.size());
  candidate_keys.reserve(analysis->candidates.size());
  for (size_t cand : analysis->candidates) {
    candidate_plans.push_back(analysis->clusters[cand].candidate);
    candidate_keys.push_back(analysis->clusters[cand].canonical_key);
  }
  analysis->overlapping =
      options.overlap == SubqueryClusterer::OverlapAlgorithm::kAllPairs
          ? ComputeOverlapsAllPairs(candidate_plans, pool)
          : ComputeOverlapsKeyIndex(candidate_plans, candidate_keys, pool);
}

}  // namespace internal

using internal::FinishAnalysis;

WorkloadAnalysis SubqueryClusterer::Analyze(
    const std::vector<PlanNodePtr>& queries) const {
  WorkloadAnalysis analysis;
  analysis.num_queries = queries.size();
  ThreadPool& pool = options_.pool ? *options_.pool : DefaultPool();

  // Extraction + canonical-key computation (the expensive part — one
  // key walk per query plan) runs parallel within chunks of at most
  // extract_chunk queries; each task owns its query's output slot and
  // chunks merge in query order, so the clustering is identical to a
  // sequential pass while transient memory stays O(chunk).
  SubqueryExtractor extractor(options_.extractor);
  const size_t chunk = std::max<size_t>(1, options_.extract_chunk);
  std::unordered_map<std::string, size_t> key_to_cluster;
  std::vector<std::vector<KeyedSubquery>> buffer;
  for (size_t base = 0; base < queries.size(); base += chunk) {
    const size_t end = std::min(queries.size(), base + chunk);
    buffer.assign(end - base, {});
    pool.ParallelFor(base, end, [&](size_t qi) {
      buffer[qi - base] = ExtractKeyed(extractor, queries[qi]);
    });

    for (size_t qi = base; qi < end; ++qi) {
      for (const auto& sub : buffer[qi - base]) {
        ++analysis.num_subqueries;
        auto [it, inserted] =
            key_to_cluster.try_emplace(sub.key, analysis.clusters.size());
        if (inserted) {
          SubqueryCluster cluster;
          cluster.canonical_key = sub.key;
          analysis.clusters.push_back(std::move(cluster));
        }
        analysis.clusters[it->second].occurrences.push_back({qi, sub.plan});
      }
    }
  }

  for (auto& cluster : analysis.clusters) {
    cluster.occurrence_count = cluster.occurrences.size();
    analysis.num_equivalent_pairs += cluster.num_equivalent_pairs();
    // Distinct queries containing this cluster.
    std::set<size_t> qset;
    for (const auto& occ : cluster.occurrences) qset.insert(occ.query_index);
    cluster.query_indices.assign(qset.begin(), qset.end());
    // Candidate member: least overhead (cost oracle) or smallest plan.
    const SubqueryOccurrence* best = &cluster.occurrences.front();
    double best_cost = cost_fn_ ? cost_fn_(*best->plan)
                                : static_cast<double>(best->plan->NumOperators());
    for (const auto& occ : cluster.occurrences) {
      const double cost = cost_fn_
                              ? cost_fn_(*occ.plan)
                              : static_cast<double>(occ.plan->NumOperators());
      if (cost < best_cost) {
        best_cost = cost;
        best = &occ;
      }
    }
    cluster.candidate = best->plan;
  }

  FinishAnalysis(options_, pool, &analysis);
  return analysis;
}

WorkloadAnalysis SubqueryClusterer::AnalyzeStreaming(
    size_t num_queries, const QueryFn& query_fn) const {
  WorkloadAnalysis analysis;
  analysis.num_queries = num_queries;
  ThreadPool& pool = options_.pool ? *options_.pool : DefaultPool();
  SubqueryExtractor extractor(options_.extractor);
  const size_t chunk = std::max<size_t>(1, options_.extract_chunk);

  // One pass of per-cluster aggregates; query plans live for one chunk.
  // Clusters are numbered in first-appearance order over the same
  // query-ordered merge Analyze() uses, and the argmin runs over the
  // same occurrence sequence with the same tie-break (first member, then
  // strictly lower cost), so for a pure cost oracle the chosen member is
  // identical. Each cluster keeps only its current argmin subplan.
  struct ClusterBuild {
    size_t count = 0;
    std::vector<size_t> query_indices;  // ascending by construction
    double best_cost = 0.0;
    PlanNodePtr best;  // the argmin member; null until the first one
  };
  std::unordered_map<std::string, size_t> key_to_cluster;
  std::vector<ClusterBuild> builds;

  std::vector<std::vector<KeyedSubquery>> buffer;
  for (size_t base = 0; base < num_queries; base += chunk) {
    const size_t end = std::min(num_queries, base + chunk);
    buffer.assign(end - base, {});
    pool.ParallelFor(base, end, [&](size_t qi) {
      const PlanNodePtr plan = query_fn(qi);
      if (plan != nullptr) buffer[qi - base] = ExtractKeyed(extractor, plan);
    });

    for (size_t qi = base; qi < end; ++qi) {
      for (const KeyedSubquery& sub : buffer[qi - base]) {
        ++analysis.num_subqueries;
        auto [it, inserted] =
            key_to_cluster.try_emplace(sub.key, builds.size());
        if (inserted) {
          builds.emplace_back();
          SubqueryCluster cluster;
          cluster.canonical_key = sub.key;
          analysis.clusters.push_back(std::move(cluster));
        }
        ClusterBuild& build = builds[it->second];
        ++build.count;
        if (build.query_indices.empty() || build.query_indices.back() != qi) {
          build.query_indices.push_back(qi);
        }
        const double cost =
            cost_fn_ ? cost_fn_(*sub.plan)
                     : static_cast<double>(sub.plan->NumOperators());
        if (build.best == nullptr || cost < build.best_cost) {
          build.best_cost = cost;
          build.best = sub.plan;
        }
      }
    }
  }

  for (size_t ci = 0; ci < builds.size(); ++ci) {
    SubqueryCluster& cluster = analysis.clusters[ci];
    cluster.occurrence_count = builds[ci].count;
    cluster.query_indices = std::move(builds[ci].query_indices);
    cluster.candidate = std::move(builds[ci].best);
    analysis.num_equivalent_pairs += cluster.num_equivalent_pairs();
  }

  FinishAnalysis(options_, pool, &analysis);
  return analysis;
}

// ---------------------------------------------------------------------
// ClustererSession

ClustererSession::ClustererSession(SubqueryClusterer::Options options,
                                   SubqueryClusterer::CostFn cost_fn)
    : options_(options), cost_fn_(std::move(cost_fn)) {}

bool ClustererSession::RecomputeCandidate(ClusterState* cluster) {
  // Members iterate in (query id, ordinal) order — the order the batch
  // pass visits occurrences — and only a strictly lower cost displaces
  // the incumbent, so the chosen member matches Analyze() bit for bit.
  const PlanNode* before = cluster->candidate.get();
  PlanNodePtr best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const auto& [key, member] : cluster->members) {
    if (member.cost < best_cost) {
      best_cost = member.cost;
      best = member.plan;
    }
  }
  cluster->candidate = best;
  return cluster->candidate.get() != before;
}

Status ClustererSession::IngestQuery(uint64_t query_id,
                                     const PlanNodePtr& plan,
                                     MutationEffects* effects) {
  if (plan == nullptr) return Status::InvalidArgument("null query plan");
  if (queries_.count(query_id) != 0) {
    return Status::AlreadyExists("query id already live");
  }
  std::vector<KeyedSubquery> subs =
      ExtractKeyed(SubqueryExtractor(options_.extractor), plan);

  std::vector<std::string>& keys = queries_[query_id];
  keys.reserve(subs.size());
  std::map<std::string, bool> was_candidate;  // touched clusters, key asc
  for (size_t ordinal = 0; ordinal < subs.size(); ++ordinal) {
    std::string key = std::move(subs[ordinal].key);
    auto [it, inserted] = clusters_.emplace(key, ClusterState{});
    if (inserted) was_candidate.emplace(key, false);
    else was_candidate.emplace(key, IsCandidate(it->second));
    ClusterState& cluster = it->second;
    Member member;
    const PlanNode& sub = *subs[ordinal].plan;
    member.cost = cost_fn_ ? cost_fn_(sub)
                           : static_cast<double>(sub.NumOperators());
    member.plan = std::move(subs[ordinal].plan);
    cluster.members.emplace(std::make_pair(query_id, ordinal),
                            std::move(member));
    ++cluster.per_query[query_id];
    keys.push_back(std::move(key));
  }

  for (const auto& [key, was] : was_candidate) {
    ClusterState& cluster = clusters_.at(key);
    const bool replanned = RecomputeCandidate(&cluster);
    const bool is = IsCandidate(cluster);
    if (!was && is) {
      ++churn_events_;
      if (effects) effects->candidates_added.push_back(key);
    } else if (was && is && replanned) {
      ++churn_events_;
      if (effects) effects->candidates_replanned.push_back(key);
    }
    // was && !is cannot happen on ingest (sharing only grows).
  }
  return Status::OK();
}

Status ClustererSession::RetireQuery(uint64_t query_id,
                                     MutationEffects* effects) {
  auto qit = queries_.find(query_id);
  if (qit == queries_.end()) return Status::NotFound("query id not live");

  std::map<std::string, bool> was_candidate;
  const std::vector<std::string>& keys = qit->second;
  for (size_t ordinal = 0; ordinal < keys.size(); ++ordinal) {
    auto it = clusters_.find(keys[ordinal]);
    if (it == clusters_.end()) continue;  // defensive; ingest recorded it
    ClusterState& cluster = it->second;
    was_candidate.emplace(keys[ordinal], IsCandidate(cluster));
    cluster.members.erase(std::make_pair(query_id, ordinal));
    if (auto pq = cluster.per_query.find(query_id);
        pq != cluster.per_query.end() && --pq->second == 0) {
      cluster.per_query.erase(pq);
    }
  }

  for (const auto& [key, was] : was_candidate) {
    auto it = clusters_.find(key);
    ClusterState& cluster = it->second;
    if (cluster.members.empty()) {
      clusters_.erase(it);
      if (was) {
        ++churn_events_;
        if (effects) effects->candidates_removed.push_back(key);
      }
      continue;
    }
    const bool replanned = RecomputeCandidate(&cluster);
    const bool is = IsCandidate(cluster);
    if (was && !is) {
      ++churn_events_;
      if (effects) effects->candidates_removed.push_back(key);
    } else if (was && is && replanned) {
      ++churn_events_;
      if (effects) effects->candidates_replanned.push_back(key);
    }
    // !was && is cannot happen on retire (sharing only shrinks).
  }
  queries_.erase(qit);
  return Status::OK();
}

std::vector<uint64_t> ClustererSession::LiveQueryIds() const {
  std::vector<uint64_t> ids;
  ids.reserve(queries_.size());
  for (const auto& [id, unused] : queries_) ids.push_back(id);
  return ids;
}

const std::vector<std::string>* ClustererSession::QueryKeys(
    uint64_t query_id) const {
  auto it = queries_.find(query_id);
  return it == queries_.end() ? nullptr : &it->second;
}

std::vector<std::string> ClustererSession::CandidateKeys() const {
  std::vector<std::string> keys;
  for (const auto& [key, cluster] : clusters_) {
    if (IsCandidate(cluster)) keys.push_back(key);
  }
  return keys;
}

std::optional<ClustererSession::CandidateInfo> ClustererSession::Candidate(
    const std::string& key) const {
  auto it = clusters_.find(key);
  if (it == clusters_.end() || !IsCandidate(it->second)) return std::nullopt;
  CandidateInfo info;
  info.key = key;
  info.plan = it->second.candidate;
  for (const auto& [id, unused] : it->second.per_query) {
    info.query_ids.push_back(id);
  }
  return info;
}

WorkloadAnalysis ClustererSession::Snapshot() const {
  WorkloadAnalysis analysis;
  analysis.num_queries = queries_.size();
  ThreadPool& pool = options_.pool ? *options_.pool : DefaultPool();

  // Batch query indices are positions in the ascending live-id list.
  std::map<uint64_t, size_t> position;
  for (const auto& [id, unused] : queries_) {
    position.emplace(id, position.size());
  }

  // Batch cluster order is first appearance over the query-ordered
  // merge: ascending (first member's query position, ordinal). The
  // member maps are keyed (query id, ordinal) with id order = position
  // order, so each cluster's first member IS its first appearance.
  std::vector<const std::map<std::string, ClusterState>::value_type*> ordered;
  ordered.reserve(clusters_.size());
  for (const auto& entry : clusters_) ordered.push_back(&entry);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto* a, const auto* b) {
              return a->second.members.begin()->first <
                     b->second.members.begin()->first;
            });

  for (const auto* entry : ordered) {
    const ClusterState& state = entry->second;
    SubqueryCluster cluster;
    cluster.canonical_key = entry->first;
    cluster.occurrence_count = state.members.size();
    cluster.candidate = state.candidate;
    for (const auto& [id, unused] : state.per_query) {
      cluster.query_indices.push_back(position.at(id));
    }
    analysis.num_subqueries += cluster.occurrence_count;
    analysis.num_equivalent_pairs += cluster.num_equivalent_pairs();
    analysis.clusters.push_back(std::move(cluster));
  }

  FinishAnalysis(options_, pool, &analysis);
  return analysis;
}

}  // namespace autoview
