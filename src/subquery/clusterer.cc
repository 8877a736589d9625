#include "subquery/clusterer.h"

#include <algorithm>
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

/// Exact key index: candidates j and k overlap iff one's cluster key is
/// the key of a proper subtree of the other's plan. Cluster keys are
/// unique, so a lookup from key to candidate needs no verification, and
/// one SubtreeCanonicalKeys walk per candidate finds every candidate it
/// contains. Each pair is filed under its smaller id, then rows are
/// sorted, so the table equals an all-pairs CanonicalPlansOverlap scan.
/// The working set is the key index (|Z| views into the clusters' keys)
/// plus one plan's subtree keys per task.
std::vector<std::vector<size_t>> ComputeOverlaps(
    const std::vector<PlanNodePtr>& plans,
    const std::vector<std::string_view>& keys, ThreadPool& pool) {
  const size_t z = plans.size();
  std::unordered_map<std::string_view, size_t> candidate_of_key;
  candidate_of_key.reserve(z);
  for (size_t k = 0; k < z; ++k) candidate_of_key.emplace(keys[k], k);

  std::vector<std::vector<size_t>> contained(z);
  pool.ParallelFor(0, z, [&](size_t j) {
    if (plans[j] == nullptr) return;  // query_fn could not re-derive it
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

WorkloadAnalysis SubqueryClusterer::AnalyzeStreaming(
    size_t num_queries, const QueryFn& query_fn) const {
  ThreadPool& pool = options_.pool ? *options_.pool : DefaultPool();
  ClustererSession session(options_, cost_fn_, query_fn);
  const size_t chunk = std::max<size_t>(1, options_.extract_chunk);

  // Each task owns its query's record slot; the fold runs on this thread
  // in query order. A skipped query is ingested empty, so query ids stay
  // the batch's query indices.
  std::vector<std::vector<ClustererSession::Subquery>> buffer;
  for (size_t base = 0; base < num_queries; base += chunk) {
    const size_t end = std::min(num_queries, base + chunk);
    buffer.assign(end - base, {});
    pool.ParallelFor(base, end, [&](size_t qi) {
      const PlanNodePtr plan = query_fn(qi);
      if (plan != nullptr) buffer[qi - base] = session.Extract(plan);
    });
    for (size_t qi = base; qi < end; ++qi) {
      // Ids ascend from 0, so the fold cannot reject them.
      (void)session.IngestSubqueries(qi, std::move(buffer[qi - base]));
    }
  }
  return session.Snapshot();
}

// ---------------------------------------------------------------------
// ClustererSession

ClustererSession::ClustererSession(SubqueryClusterer::Options options,
                                   SubqueryClusterer::CostFn cost_fn,
                                   SubqueryClusterer::QueryFn query_fn)
    : options_(options),
      cost_fn_(std::move(cost_fn)),
      query_fn_(std::move(query_fn)) {}

std::vector<ClustererSession::Subquery> ClustererSession::Extract(
    const PlanNodePtr& plan) const {
  std::vector<size_t> positions;
  const std::vector<PlanNodePtr> subs =
      SubqueryExtractor(options_.extractor).Extract(plan, &positions);
  std::vector<Subquery> out;
  if (subs.empty()) return out;
  // Each subquery reads its key by pre-order position instead of
  // re-rendering its subtree.
  std::vector<std::string> keys = SubtreeCanonicalKeys(*plan);
  out.reserve(subs.size());
  for (size_t i = 0; i < subs.size(); ++i) {
    const PlanNode& sub = *subs[i];
    out.push_back({std::move(keys[positions[i]]),
                   cost_fn_ ? cost_fn_(sub)
                            : static_cast<double>(sub.NumOperators())});
  }
  return out;
}

std::vector<PlanNodePtr> ClustererSession::Rederive(uint64_t query_id) const {
  const PlanNodePtr query = query_fn_ ? query_fn_(query_id) : nullptr;
  if (query == nullptr) return {};
  return SubqueryExtractor(options_.extractor).Extract(query);
}

ClustererSession::MemberId ClustererSession::ArgminId(
    const ClusterState& cluster) {
  if (cluster.members.empty()) return {};
  const Member& m = cluster.members[cluster.argmin];
  return {m.query_id, m.ordinal};
}

std::vector<uint64_t> ClustererSession::QueriesOf(const ClusterState& cluster) {
  std::vector<uint64_t> ids;
  ids.reserve(cluster.num_queries);
  for (const Member& m : cluster.members) {
    if (ids.empty() || ids.back() != m.query_id) ids.push_back(m.query_id);
  }
  return ids;
}

Status ClustererSession::IngestQuery(uint64_t query_id,
                                     const PlanNodePtr& plan,
                                     MutationEffects* effects) {
  if (plan == nullptr) return Status::InvalidArgument("null query plan");
  return IngestSubqueries(query_id, Extract(plan), effects);
}

Status ClustererSession::IngestSubqueries(uint64_t query_id,
                                          std::vector<Subquery> subqueries,
                                          MutationEffects* effects) {
  if (!queries_.empty() && query_id <= queries_.rbegin()->first) {
    return Status::InvalidArgument("query ids must ascend past every live id");
  }
  std::vector<Clusters::value_type*>& entries =
      queries_.emplace_hint(queries_.end(), query_id,
                            std::vector<Clusters::value_type*>())
          ->second;
  entries.reserve(subqueries.size());
  std::vector<Touched> touched;
  for (size_t ordinal = 0; ordinal < subqueries.size(); ++ordinal) {
    Subquery& sub = subqueries[ordinal];
    Clusters::value_type& entry =
        *clusters_.try_emplace(std::move(sub.key)).first;
    ClusterState& cluster = entry.second;
    if (cluster.members.empty() ||
        cluster.members.back().query_id != query_id) {
      touched.push_back({&entry, IsCandidate(cluster), ArgminId(cluster)});
      ++cluster.num_queries;
    }
    cluster.members.push_back({query_id, ordinal, sub.cost});
    if (sub.cost < cluster.members[cluster.argmin].cost) {
      cluster.argmin = cluster.members.size() - 1;
    }
    entries.push_back(&entry);
  }
  Settle(&touched, effects);
  return Status::OK();
}

Status ClustererSession::RetireQuery(uint64_t query_id,
                                     MutationEffects* effects) {
  auto qit = queries_.find(query_id);
  if (qit == queries_.end()) return Status::NotFound("query id not live");

  std::vector<Touched> touched;
  for (Clusters::value_type* entry : qit->second) {
    ClusterState& cluster = entry->second;
    // The query's members are one run of the ascending member list; a
    // cluster it holds several occurrences of is visited once.
    std::vector<Member>& members = cluster.members;
    const auto first = std::lower_bound(
        members.begin(), members.end(), query_id,
        [](const Member& m, uint64_t id) { return m.query_id < id; });
    if (first == members.end() || first->query_id != query_id) continue;
    const auto last = std::find_if(first, members.end(), [&](const Member& m) {
      return m.query_id != query_id;
    });
    touched.push_back({entry, IsCandidate(cluster), ArgminId(cluster)});
    const size_t lo = static_cast<size_t>(first - members.begin());
    const size_t hi = static_cast<size_t>(last - members.begin());
    members.erase(first, last);
    --cluster.num_queries;
    if (cluster.argmin >= hi) {
      cluster.argmin -= hi - lo;
    } else if (cluster.argmin >= lo) {
      // The argmin rule over the survivors: the least cost, ties to the
      // earliest member (appends apply it incrementally: a later member
      // wins only with a strictly lower cost).
      cluster.argmin = 0;
      for (size_t i = 1; i < members.size(); ++i) {
        if (members[i].cost < members[cluster.argmin].cost) cluster.argmin = i;
      }
    }
  }
  queries_.erase(qit);
  Settle(&touched, effects);
  return Status::OK();
}

void ClustererSession::Settle(std::vector<Touched>* touched,
                              MutationEffects* effects) {
  std::sort(touched->begin(), touched->end(),
            [](const Touched& a, const Touched& b) {
              return a.entry->first < b.entry->first;
            });
  for (const Touched& t : *touched) {
    ClusterState& cluster = t.entry->second;
    const bool is = IsCandidate(cluster);
    const bool replanned = ArgminId(cluster) != t.argmin;
    // Ingest only raises sharing and retire only lowers it, so at most
    // one of these holds.
    std::vector<std::string> MutationEffects::*list;
    if (!t.was_candidate && is) {
      list = &MutationEffects::candidates_added;
    } else if (t.was_candidate && !is) {
      list = &MutationEffects::candidates_removed;
    } else if (t.was_candidate && replanned) {
      list = &MutationEffects::candidates_replanned;
    } else {
      continue;
    }
    ++churn_events_;
    cluster.plan.reset();
    if (effects != nullptr) (effects->*list).push_back(t.entry->first);
  }
  for (const Touched& t : *touched) {
    if (t.entry->second.members.empty()) {
      clusters_.erase(clusters_.find(t.entry->first));
    }
  }
}

std::vector<uint64_t> ClustererSession::LiveQueryIds() const {
  std::vector<uint64_t> ids;
  ids.reserve(queries_.size());
  for (const auto& [id, unused] : queries_) ids.push_back(id);
  return ids;
}

std::vector<std::string_view> ClustererSession::QueryKeys(
    uint64_t query_id) const {
  std::vector<std::string_view> keys;
  if (auto it = queries_.find(query_id); it != queries_.end()) {
    keys.reserve(it->second.size());
    for (const Clusters::value_type* entry : it->second) {
      keys.push_back(entry->first);
    }
  }
  return keys;
}

std::vector<std::string> ClustererSession::CandidateKeys() const {
  std::vector<std::string> keys;
  for (const auto& [key, cluster] : clusters_) {
    if (IsCandidate(cluster)) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::optional<ClustererSession::CandidateInfo> ClustererSession::Candidate(
    const std::string& key) const {
  auto it = clusters_.find(key);
  if (it == clusters_.end() || !IsCandidate(it->second)) return std::nullopt;
  const ClusterState& cluster = it->second;
  if (cluster.plan == nullptr) {
    const Member& argmin = cluster.members[cluster.argmin];
    std::vector<PlanNodePtr> subs = Rederive(argmin.query_id);
    if (argmin.ordinal < subs.size()) {
      cluster.plan = std::move(subs[argmin.ordinal]);
    }
  }
  CandidateInfo info;
  info.key = key;
  info.plan = cluster.plan;
  info.query_ids = QueriesOf(cluster);
  return info;
}

WorkloadAnalysis ClustererSession::Snapshot() const {
  WorkloadAnalysis analysis;
  analysis.num_queries = queries_.size();
  ThreadPool& pool = options_.pool ? *options_.pool : DefaultPool();
  const std::vector<uint64_t> live = LiveQueryIds();

  // First appearance over the live queries in id order: ascending
  // (first member's query id, ordinal).
  std::vector<const Clusters::value_type*> ordered;
  ordered.reserve(clusters_.size());
  for (const auto& entry : clusters_) ordered.push_back(&entry);
  std::sort(ordered.begin(), ordered.end(), [](const auto* a, const auto* b) {
    const Member& ma = a->second.members.front();
    const Member& mb = b->second.members.front();
    return ma.query_id != mb.query_id ? ma.query_id < mb.query_id
                                      : ma.ordinal < mb.ordinal;
  });

  std::vector<bool> associated(live.size(), false);
  std::vector<std::pair<MemberId, size_t>> uncached;  // argmin, cluster
  analysis.clusters.reserve(ordered.size());
  for (const auto* entry : ordered) {
    const ClusterState& state = entry->second;
    SubqueryCluster cluster;
    cluster.canonical_key = entry->first;
    cluster.occurrence_count = state.members.size();
    for (uint64_t id : QueriesOf(state)) {
      cluster.query_indices.push_back(static_cast<size_t>(
          std::lower_bound(live.begin(), live.end(), id) - live.begin()));
    }
    analysis.num_subqueries += cluster.occurrence_count;
    analysis.num_equivalent_pairs += cluster.num_equivalent_pairs();
    if (IsCandidate(state)) {
      analysis.candidates.push_back(analysis.clusters.size());
      for (size_t qi : cluster.query_indices) associated[qi] = true;
      cluster.candidate = state.plan;
      if (cluster.candidate == nullptr) {
        uncached.emplace_back(ArgminId(state), analysis.clusters.size());
      }
    }
    analysis.clusters.push_back(std::move(cluster));
  }
  for (size_t qi = 0; qi < live.size(); ++qi) {
    if (associated[qi]) analysis.associated_queries.push_back(qi);
  }

  // Re-derive the uncached candidate plans with one query_fn call per
  // query; each task writes only its own query's clusters.
  std::sort(uncached.begin(), uncached.end());
  std::vector<size_t> starts;
  for (size_t i = 0; i < uncached.size(); ++i) {
    if (i == 0 || uncached[i].first.first != uncached[i - 1].first.first) {
      starts.push_back(i);
    }
  }
  pool.ParallelFor(0, starts.size(), [&](size_t g) {
    const size_t begin = starts[g];
    const size_t end = g + 1 < starts.size() ? starts[g + 1] : uncached.size();
    const std::vector<PlanNodePtr> subs =
        Rederive(uncached[begin].first.first);
    for (size_t i = begin; i < end; ++i) {
      const size_t ordinal = uncached[i].first.second;
      if (ordinal < subs.size()) {
        analysis.clusters[uncached[i].second].candidate = subs[ordinal];
      }
    }
  });

  std::vector<PlanNodePtr> candidate_plans;
  std::vector<std::string_view> candidate_keys;
  candidate_plans.reserve(analysis.candidates.size());
  candidate_keys.reserve(analysis.candidates.size());
  for (size_t c : analysis.candidates) {
    candidate_plans.push_back(analysis.clusters[c].candidate);
    candidate_keys.push_back(analysis.clusters[c].canonical_key);
  }
  analysis.overlapping = ComputeOverlaps(candidate_plans, candidate_keys, pool);
  return analysis;
}

}  // namespace autoview
