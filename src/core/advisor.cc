#include "core/advisor.h"

#include <algorithm>
#include <future>
#include <string_view>
#include <utility>

#include "plan/builder.h"
#include "plan/canonical.h"
#include "select/iterview.h"
#include "select/rlview.h"
#include "util/random.h"

namespace autoview {

OnlineAdvisor::OnlineAdvisor(Database* db, MaterializedViewStore* store,
                             OnlineAdvisorOptions options)
    : db_(db),
      store_(store),
      options_(std::move(options)),
      clock_(options_.clock ? options_.clock : DefaultClock()),
      executor_(db),
      estimator_(&db->catalog(), options_.pricing),
      cardinality_(&db->catalog()),
      session_(
          options_.cluster,
          [this](const PlanNode& plan) {
            return estimator_.EstimatePlanCost(plan);
          },
          [this](size_t query_id) { return LivePlan(query_id); }) {}

PlanNodePtr OnlineAdvisor::LivePlan(uint64_t query_id) const {
  const auto it = live_.find(query_id);
  return it == live_.end() ? nullptr : it->second.plan;
}

Result<uint64_t> OnlineAdvisor::IngestSql(const std::string& sql) {
  const PlanBuilder builder(&db_->catalog());
  AV_ASSIGN_OR_RETURN(PlanNodePtr plan, builder.BuildFromSql(sql));
  MutexLock lock(mu_);
  const uint64_t query_id = next_query_id_++;
  AV_RETURN_NOT_OK(IngestPlanLocked(query_id, plan));
  return query_id;
}

Status OnlineAdvisor::IngestPlan(uint64_t query_id, const PlanNodePtr& plan) {
  MutexLock lock(mu_);
  AV_RETURN_NOT_OK(IngestPlanLocked(query_id, plan));
  if (query_id >= next_query_id_) next_query_id_ = query_id + 1;
  return Status::OK();
}

Status OnlineAdvisor::RetireQuery(uint64_t query_id) {
  MutexLock lock(mu_);
  return RetireQueryLocked(query_id);
}

Status OnlineAdvisor::ForceReselect() {
  MutexLock lock(mu_);
  return ReselectLocked();
}

OnlineAdvisorStats OnlineAdvisor::stats() const {
  MutexLock lock(mu_);
  OnlineAdvisorStats s;
  s.live_queries = row_ids_.size();
  s.candidate_views = views_.size();
  s.ingested = ingested_;
  s.retired = retired_;
  s.churn_events = session_.churn_events();
  s.reselections = reselections_;
  s.swaps_committed = swaps_committed_;
  s.views_materialized = views_materialized_;
  s.materialize_rejected = materialize_rejected_;
  s.incumbent_utility = incumbent_utility_;
  s.last_reselect_timed_out = last_reselect_timed_out_;
  return s;
}

std::vector<std::string> OnlineAdvisor::SelectedKeys() const {
  MutexLock lock(mu_);
  return std::vector<std::string>(incumbent_keys_.begin(),
                                  incumbent_keys_.end());
}

MvsProblemIndex OnlineAdvisor::CopyIndex() const {
  MutexLock lock(mu_);
  return index_;
}

Result<MvsProblem> OnlineAdvisor::DenseOracleProblem() const {
  MutexLock lock(mu_);
  const size_t nq = row_ids_.size();
  const size_t nz = views_.size();
  MvsProblem problem;
  problem.overhead.resize(nz);
  problem.frequency.resize(nz);
  problem.overlap.assign(nz, std::vector<bool>(nz, false));
  problem.benefit.assign(nq, std::vector<double>(nz, 0.0));
  for (size_t j = 0; j < nz; ++j) {
    const ViewState& view = views_[j];
    problem.overhead[j] = view.estimates.overhead;
    const std::optional<ClustererSession::CandidateInfo> info =
        session_.Candidate(view.key);
    if (!info.has_value()) {
      return Status::Internal("advisor view is not a session candidate: " +
                              view.key);
    }
    problem.frequency[j] = info->query_ids.size();
    for (uint64_t qid : info->query_ids) {
      const auto row_it =
          std::lower_bound(row_ids_.begin(), row_ids_.end(), qid);
      if (row_it == row_ids_.end() || *row_it != qid) {
        return Status::Internal("candidate references a non-live query");
      }
      const auto live_it = live_.find(qid);
      if (live_it == live_.end()) {
        return Status::Internal("missing cached query cost");
      }
      problem.benefit[row_it - row_ids_.begin()][j] =
          RealOptBenefitCell(live_it->second.cost, view.estimates);
    }
    for (size_t k = 0; k < j; ++k) {
      if (CanonicalPlansOverlap(*views_[k].plan, *view.plan)) {
        problem.overlap[j][k] = true;
        problem.overlap[k][j] = true;
      }
    }
  }
  AV_RETURN_NOT_OK(problem.Validate());
  return problem;
}

Status OnlineAdvisor::IngestPlanLocked(uint64_t query_id,
                                       const PlanNodePtr& plan) {
  if (plan == nullptr) {
    return Status::InvalidArgument("IngestPlan: null plan");
  }
  if (!row_ids_.empty() && query_id <= row_ids_.back()) {
    return Status::InvalidArgument(
        "IngestPlan: query ids must be strictly increasing (arrival order)");
  }
  // Live before the session sees it: a candidate whose argmin member is
  // in this query re-derives its plan through LivePlan.
  live_[query_id] = LiveQuery{plan, estimator_.EstimatePlanCost(*plan)};
  ClustererSession::MutationEffects effects;
  if (Status st = session_.IngestQuery(query_id, plan, &effects); !st.ok()) {
    live_.erase(query_id);
    return st;
  }

  // Columns whose candidate plan changed are rebuilt wholesale (the
  // estimates — and with them every cell — may change); removing them
  // before the row insert keeps the fresh row from carrying stale-plan
  // cells. Re-added below, after the row exists, so the rebuilt column
  // can reference it.
  for (const std::string& key : effects.candidates_replanned) {
    AV_RETURN_NOT_OK(RemoveViewLocked(key));
  }
  for (const std::string& key : effects.candidates_removed) {
    AV_RETURN_NOT_OK(RemoveViewLocked(key));
  }

  // The new row's cells over the surviving columns: distinct candidate
  // keys this query contains, mapped to ascending column indices.
  std::vector<MvsProblemIndex::Entry> entries;
  std::set<size_t> applicable;
  for (const std::string_view key : session_.QueryKeys(query_id)) {
    const auto it = view_of_key_.find(key);
    if (it != view_of_key_.end()) applicable.insert(it->second);
  }
  const double query_cost = live_[query_id].cost;
  for (size_t j : applicable) {
    const double benefit = RealOptBenefitCell(query_cost, views_[j].estimates);
    if (benefit != 0.0) {
      entries.push_back(MvsProblemIndex::Entry{j, benefit});
    }
  }
  AV_RETURN_NOT_OK(index_.InsertQueryRow(entries));
  row_ids_.push_back(query_id);

  for (const std::string& key : effects.candidates_replanned) {
    AV_RETURN_NOT_OK(AddViewLocked(key));
  }
  for (const std::string& key : effects.candidates_added) {
    AV_RETURN_NOT_OK(AddViewLocked(key));
  }

  ++ingested_;
  ++ingests_since_reselect_;

  if (options_.window_queries > 0) {
    while (row_ids_.size() > options_.window_queries) {
      AV_RETURN_NOT_OK(RetireQueryLocked(row_ids_.front()));
    }
  }
  return MaybeReselectLocked();
}

Status OnlineAdvisor::RetireQueryLocked(uint64_t query_id) {
  const auto it = std::lower_bound(row_ids_.begin(), row_ids_.end(), query_id);
  if (it == row_ids_.end() || *it != query_id) {
    return Status::NotFound("RetireQuery: query is not live");
  }
  ClustererSession::MutationEffects effects;
  AV_RETURN_NOT_OK(session_.RetireQuery(query_id, &effects));
  for (const std::string& key : effects.candidates_removed) {
    AV_RETURN_NOT_OK(RemoveViewLocked(key));
  }
  for (const std::string& key : effects.candidates_replanned) {
    AV_RETURN_NOT_OK(RemoveViewLocked(key));
  }
  AV_RETURN_NOT_OK(index_.RetireQueryRow(it - row_ids_.begin()));
  row_ids_.erase(it);
  live_.erase(query_id);
  // Replanned columns come back only after the row is gone: their cells
  // must reference post-retire row positions.
  for (const std::string& key : effects.candidates_replanned) {
    AV_RETURN_NOT_OK(AddViewLocked(key));
  }
  ++retired_;
  return Status::OK();
}

Status OnlineAdvisor::AddViewLocked(const std::string& key) {
  if (view_of_key_.count(key) != 0) {
    return Status::AlreadyExists("AddView: column exists for " + key);
  }
  const std::optional<ClustererSession::CandidateInfo> info =
      session_.Candidate(key);
  if (!info.has_value()) {
    return Status::NotFound("AddView: not a current candidate: " + key);
  }
  if (info->plan == nullptr) {
    return Status::Internal("AddView: candidate plan not re-derivable: " + key);
  }
  ViewState view;
  view.key = key;
  view.plan = info->plan;
  view.estimates =
      EstimateView(estimator_, cardinality_, options_.pricing, *info->plan);

  // query_ids ascend and row_ids_ ascends, so the column comes out in
  // ascending row order as AddCandidateView requires.
  std::vector<MvsProblemIndex::Entry> column;
  for (uint64_t qid : info->query_ids) {
    const auto row_it = std::lower_bound(row_ids_.begin(), row_ids_.end(), qid);
    if (row_it == row_ids_.end() || *row_it != qid) {
      return Status::Internal("AddView: candidate references non-live query");
    }
    const auto live_it = live_.find(qid);
    if (live_it == live_.end()) {
      return Status::Internal("AddView: missing cached query cost");
    }
    const double benefit =
        RealOptBenefitCell(live_it->second.cost, view.estimates);
    if (benefit != 0.0) {
      column.push_back(MvsProblemIndex::Entry{
          static_cast<size_t>(row_it - row_ids_.begin()), benefit});
    }
  }

  // Fig. 2's conflict rule: two candidates overlap when one's plan
  // occurs inside the other's. The live views this one contains are
  // those whose key is among its subtree keys; the live views that
  // contain it are indexed under its own key.
  view.subtree_keys = SubtreeCanonicalKeys(*view.plan);
  std::sort(view.subtree_keys.begin(), view.subtree_keys.end());
  view.subtree_keys.erase(
      std::unique(view.subtree_keys.begin(), view.subtree_keys.end()),
      view.subtree_keys.end());
  std::vector<size_t> overlapping;
  for (const std::string& subtree_key : view.subtree_keys) {
    const auto it = view_of_key_.find(subtree_key);
    if (it != view_of_key_.end()) overlapping.push_back(it->second);
  }
  if (const auto containing = views_with_subtree_.find(key);
      containing != views_with_subtree_.end()) {
    for (const uint64_t id : containing->second) {
      // views_ ascends by id, so an id's column is a binary search.
      const auto it = std::lower_bound(
          views_.begin(), views_.end(), id,
          [](const ViewState& v, uint64_t want) { return v.id < want; });
      if (it == views_.end() || it->id != id) {
        return Status::Internal("AddView: subtree index names a dead view");
      }
      overlapping.push_back(static_cast<size_t>(it - views_.begin()));
    }
  }
  std::sort(overlapping.begin(), overlapping.end());
  overlapping.erase(std::unique(overlapping.begin(), overlapping.end()),
                    overlapping.end());
  AV_RETURN_NOT_OK(
      index_.AddCandidateView(view.estimates.overhead, column, overlapping));
  view.id = next_view_id_++;
  for (const std::string& subtree_key : view.subtree_keys) {
    views_with_subtree_[subtree_key].push_back(view.id);
  }
  view_of_key_[key] = views_.size();
  views_.push_back(std::move(view));
  return Status::OK();
}

Status OnlineAdvisor::RemoveViewLocked(const std::string& key) {
  const auto it = view_of_key_.find(key);
  if (it == view_of_key_.end()) {
    return Status::NotFound("RemoveView: no column for " + key);
  }
  const size_t j = it->second;
  AV_RETURN_NOT_OK(index_.RetireCandidateView(j));
  const ViewState& view = views_[j];
  for (const std::string& subtree_key : view.subtree_keys) {
    const auto bucket = views_with_subtree_.find(subtree_key);
    if (bucket == views_with_subtree_.end()) {
      return Status::Internal("RemoveView: subtree key not indexed");
    }
    std::vector<uint64_t>& ids = bucket->second;
    const auto pos = std::lower_bound(ids.begin(), ids.end(), view.id);
    if (pos == ids.end() || *pos != view.id) {
      return Status::Internal("RemoveView: view missing from subtree index");
    }
    ids.erase(pos);
    if (ids.empty()) views_with_subtree_.erase(bucket);
  }
  views_.erase(views_.begin() + j);
  view_of_key_.erase(it);
  for (auto& entry : view_of_key_) {
    if (entry.second > j) --entry.second;
  }
  return Status::OK();
}

Status OnlineAdvisor::MaybeReselectLocked() {
  if (index_.num_views() == 0) return Status::OK();
  bool fire = false;
  switch (options_.trigger) {
    case ReselectTrigger::kQueryEpoch:
      fire = ingests_since_reselect_ >= options_.epoch_queries;
      break;
    case ReselectTrigger::kDriftScore:
      fire = session_.churn_events() - churn_at_reselect_ >=
             options_.drift_churn_threshold;
      break;
    case ReselectTrigger::kUtilityRegression:
      if (reselections_ == 0) {
        fire = ingests_since_reselect_ >= options_.epoch_queries;
      } else {
        fire = IncumbentUtilityLocked() <
               (1.0 - options_.utility_regression) * incumbent_utility_;
      }
      break;
  }
  return fire ? ReselectLocked() : Status::OK();
}

Status OnlineAdvisor::ReselectLocked() {
  const std::vector<bool> warm_z = WarmZLocked();
  const Deadline deadline =
      clock_->SelectionDeadline(options_.reselect_budget_ms);
  // Stream-per-reselection seeds: the first runs on the raw seed (one
  // re-selection behaves like one batch selection), later ones on
  // disjoint streams.
  const uint64_t seed = reselections_ == 0
                            ? options_.seed
                            : Rng::StreamSeed(options_.seed, reselections_);
  MvsSolution solution;
  if (options_.use_rlview) {
    RLViewSelector::Options ropts;
    ropts.init_iterations = options_.select_iterations;
    ropts.seed = seed;
    ropts.deadline = deadline;
    RLViewSelector selector(ropts);
    AV_ASSIGN_OR_RETURN(solution, selector.ReselectDelta(index_, warm_z));
  } else {
    IterViewSelector::Options iopts;
    iopts.iterations = options_.select_iterations;
    iopts.seed = seed;
    iopts.deadline = deadline;
    IterViewSelector selector(iopts);
    AV_ASSIGN_OR_RETURN(solution, selector.ReselectDelta(index_, warm_z));
  }
  ++reselections_;
  ingests_since_reselect_ = 0;
  churn_at_reselect_ = session_.churn_events();
  incumbent_utility_ = solution.utility;
  last_reselect_timed_out_ = solution.timed_out;
  incumbent_keys_.clear();

  // Hot swap: stage the winning set under a fresh generation, then
  // commit. Surviving keys are adopted (re-tagged) by the store, not
  // rebuilt; serving threads keep reading their pinned snapshots
  // throughout, so the swap never stalls a request.
  const uint64_t generation = store_->BeginSwap();
  std::vector<std::future<Status>> builds;
  for (size_t j = 0; j < solution.z.size(); ++j) {
    if (!solution.z[j]) continue;
    incumbent_keys_.insert(views_[j].key);
    MaterializeOptions mopts;
    mopts.utility = index_.ViewUtility(j);
    mopts.generation = generation;
    builds.push_back(
        store_->MaterializeAsync(views_[j].plan, executor_, mopts));
  }
  for (std::future<Status>& build : builds) {
    const Status status = build.get();
    if (status.ok()) {
      ++views_materialized_;
    } else if (status.code() == StatusCode::kResourceExhausted) {
      // Over budget: the view stays unmaterialized and queries fall
      // back to base tables — a serving-quality loss, not an error.
      ++materialize_rejected_;
    } else if (status.code() != StatusCode::kAlreadyExists) {
      return status;
    }
  }
  AV_RETURN_NOT_OK(store_->CommitSwap(generation));
  ++swaps_committed_;
  return Status::OK();
}

std::vector<bool> OnlineAdvisor::WarmZLocked() const {
  std::vector<bool> z(views_.size(), false);
  for (const std::string& key : incumbent_keys_) {
    const auto it = view_of_key_.find(key);
    if (it != view_of_key_.end()) z[it->second] = true;
  }
  return z;
}

double OnlineAdvisor::IncumbentUtilityLocked() const {
  const YOptSolver yopt(&index_);
  return yopt.UtilityOf(WarmZLocked());
}

}  // namespace autoview
