#include "core/autoview.h"

#include <algorithm>
#include <map>
#include <set>

#include "plan/builder.h"
#include "plan/canonical.h"
#include "util/logging.h"
#include "util/strings.h"

namespace autoview {

AutoViewSystem::AutoViewSystem(Database* db, AutoViewOptions options)
    : db_(db), options_(options), executor_(db, options.pricing.consts) {}

Status AutoViewSystem::LoadWorkload(const std::vector<std::string>& sql) {
  sql_.clear();
  queries_.clear();
  skipped_queries_ = 0;
  PlanBuilder builder(&db_->catalog());
  for (const auto& text : sql) {
    // A malformed or unsupported query degrades that query, not the
    // whole workload (and certainly not the process): it is skipped and
    // counted. sql_ stays parallel to queries_ for ExportMetadata.
    Result<PlanNodePtr> plan = builder.BuildFromSql(text);
    if (!plan.ok()) {
      ++skipped_queries_;
      AV_LOG(Warning) << "skipping workload query (" << plan.status().ToString()
                      << "): " << text;
      continue;
    }
    sql_.push_back(text);
    queries_.push_back(std::move(plan).value());
  }
  analysis_ = SubqueryClusterer(options_.cluster)
                  .AnalyzeStreaming(queries_.size(),
                                    [this](size_t qi) { return queries_[qi]; });
  ground_truth_ready_ = false;
  return Status::OK();
}

Status AutoViewSystem::BuildGroundTruth() {
  // 1. Execute every raw query once (the metadata database of Fig. 3
  // holds their actual costs in production).
  query_costs_.assign(queries_.size(), 0.0);
  query_reports_.assign(queries_.size(), CostReport{});
  for (size_t i = 0; i < queries_.size(); ++i) {
    AV_ASSIGN_OR_RETURN(CostReport report,
                        executor_.ExecuteForCost(*queries_[i]));
    query_reports_[i] = report;
    query_costs_[i] = options_.pricing.QueryCost(report);
  }

  // 2. Materialize every candidate to measure size and build cost. The
  // store is explicitly unlimited (not FromEnv): this phase *measures*
  // every candidate, so an operator byte budget must not evict any of
  // them mid-measurement.
  MaterializedViewStore store(db_, ViewStoreOptions{});
  candidates_.clear();
  std::vector<const MaterializedView*> views;
  for (size_t cand = 0; cand < analysis_.candidates.size(); ++cand) {
    const size_t cluster_index = analysis_.candidates[cand];
    const auto& cluster = analysis_.clusters[cluster_index];
    AV_ASSIGN_OR_RETURN(const MaterializedView* view,
                        store.Materialize(cluster.candidate, executor_));
    views.push_back(view);
    CandidateInfo info;
    info.cluster_index = cluster_index;
    info.plan = cluster.candidate;
    info.build_cost = view->build_cost;
    info.bytes = view->byte_size;
    info.overhead = options_.pricing.StorageFee(view->byte_size) +
                    options_.pricing.QueryCost(view->build_cost);
    AV_ASSIGN_OR_RETURN(PlanNodePtr scan_plan,
                        PlanNode::MakeScan(db_->catalog(), view->table_name));
    AV_ASSIGN_OR_RETURN(CostReport scan_report,
                        executor_.ExecuteForCost(*scan_plan));
    info.scan_cost = options_.pricing.QueryCost(scan_report);
    candidates_.push_back(std::move(info));
  }

  // 3. Benefits + the cost-model dataset over applicable pairs.
  const size_t nq = analysis_.associated_queries.size();
  const size_t nz = candidates_.size();
  problem_ = MvsProblem{};
  problem_.benefit.assign(nq, std::vector<double>(nz, 0.0));
  problem_.overhead.resize(nz);
  problem_.frequency.resize(nz);
  for (size_t j = 0; j < nz; ++j) {
    problem_.overhead[j] = candidates_[j].overhead;
    problem_.frequency[j] =
        analysis_.clusters[candidates_[j].cluster_index].query_indices.size();
  }
  problem_.overlap.assign(nz, std::vector<bool>(nz, false));
  for (size_t j = 0; j < analysis_.overlapping.size(); ++j) {
    for (size_t k : analysis_.overlapping[j]) {
      problem_.overlap[j][k] = problem_.overlap[k][j] = true;
    }
  }

  dataset_.clear();
  dataset_pairs_.clear();
  Rewriter rewriter(&db_->catalog());
  for (size_t row = 0; row < nq; ++row) {
    const size_t qi = analysis_.associated_queries[row];
    for (size_t j = 0; j < nz; ++j) {
      const auto& cluster = analysis_.clusters[candidates_[j].cluster_index];
      const bool applicable =
          std::binary_search(cluster.query_indices.begin(),
                             cluster.query_indices.end(), qi);
      if (!applicable) continue;

      const double subquery_cost =
          options_.pricing.QueryCost(candidates_[j].build_cost);
      double rewritten_cost;
      if (options_.exact_benefits) {
        bool changed = false;
        AV_ASSIGN_OR_RETURN(
            PlanNodePtr rewritten,
            rewriter.Rewrite(queries_[qi], *views[j], &changed));
        if (!changed) continue;  // equivalence matched but pattern hidden
        AV_ASSIGN_OR_RETURN(CostReport report,
                            executor_.ExecuteForCost(*rewritten));
        rewritten_cost = options_.pricing.QueryCost(report);
      } else {
        // RealOpt (§VI-B1), extended with the view-scan term: the paper
        // approximates A(q|v) ~= A(q) - A(s); at our scale the scan of
        // the materialized view is not negligible, so we add its actual
        // cost. This also keeps targets bounded away from zero (MAPE
        // denominators stay sane).
        rewritten_cost = std::max(0.0, query_costs_[qi] - subquery_cost) +
                         candidates_[j].scan_cost;
      }
      problem_.benefit[row][j] = query_costs_[qi] - rewritten_cost;

      CostSample sample;
      sample.query = queries_[qi];
      sample.view = candidates_[j].plan;
      std::set<std::string> tables;
      for (const auto& t : queries_[qi]->ScannedTables()) tables.insert(t);
      for (const auto& t : candidates_[j].plan->ScannedTables()) {
        tables.insert(t);
      }
      sample.tables.assign(tables.begin(), tables.end());
      sample.target = rewritten_cost;
      sample.query_cost = query_costs_[qi];
      sample.subquery_cost = subquery_cost;
      dataset_.push_back(std::move(sample));
      dataset_pairs_.push_back({row, j});
    }
  }

  AV_RETURN_NOT_OK(store.Clear());
  AV_RETURN_NOT_OK(problem_.Validate());
  ground_truth_ready_ = true;
  return Status::OK();
}

Status AutoViewSystem::EnsureGroundTruth() const {
  return ground_truth_ready_
             ? Status::OK()
             : Status::Internal("call BuildGroundTruth() first");
}

Result<MvsProblem> AutoViewSystem::EstimateProblem(
    const CostEstimator& estimator) const {
  AV_RETURN_NOT_OK(EnsureGroundTruth());
  MvsProblem estimated = problem_;
  for (auto& row : estimated.benefit) {
    std::fill(row.begin(), row.end(), 0.0);
  }
  // Batched so parallel estimators (Wide-Deep) fill the benefit matrix
  // across the pool; each dataset entry owns one (row, j) cell.
  const std::vector<double> predicted = estimator.EstimateBatch(dataset_);
  for (size_t n = 0; n < dataset_.size(); ++n) {
    const auto& [row, j] = dataset_pairs_[n];
    estimated.benefit[row][j] = dataset_[n].query_cost - predicted[n];
  }
  return estimated;
}

Status AutoViewSystem::ExportMetadata(const MetadataStore& store) const {
  AV_RETURN_NOT_OK(EnsureGroundTruth());
  std::vector<MetadataRecord> records;
  records.reserve(dataset_.size());
  for (size_t n = 0; n < dataset_.size(); ++n) {
    const auto& sample = dataset_[n];
    const auto& [row, j] = dataset_pairs_[n];
    const size_t qi = analysis_.associated_queries[row];
    MetadataRecord record;
    record.query_sql = sql_[qi];
    record.view_sql = CanonicalKey(*candidates_[j].plan);
    record.tables = Join(sample.tables, ",");
    record.rewritten_cost = sample.target;
    record.query_cost = sample.query_cost;
    record.subquery_cost = sample.subquery_cost;
    records.push_back(std::move(record));
  }
  return store.Write(records);
}

Result<std::vector<CostSample>> AutoViewSystem::ImportCostSamples(
    const MetadataStore& store) const {
  AV_ASSIGN_OR_RETURN(std::vector<MetadataRecord> records, store.Load());
  PlanBuilder builder(&db_->catalog());
  SubqueryExtractor extractor(options_.cluster.extractor);
  std::vector<CostSample> samples;
  for (const auto& record : records) {
    auto query = builder.BuildFromSql(record.query_sql);
    if (!query.ok()) continue;  // schema drift: skip stale records
    PlanNodePtr view;
    for (const auto& sub : extractor.Extract(query.value())) {
      if (CanonicalKey(*sub) == record.view_sql) {
        view = sub;
        break;
      }
    }
    if (!view) continue;
    CostSample sample;
    sample.query = query.value();
    sample.view = std::move(view);
    sample.tables = Split(record.tables, ',');
    sample.target = record.rewritten_cost;
    sample.query_cost = record.query_cost;
    sample.subquery_cost = record.subquery_cost;
    samples.push_back(std::move(sample));
  }
  return samples;
}

Result<EndToEndReport> AutoViewSystem::ExecuteSolution(
    const MvsSolution& solution) {
  AV_RETURN_NOT_OK(EnsureGroundTruth());
  const size_t nz = candidates_.size();
  if (solution.z.size() != nz ||
      solution.y.size() != analysis_.associated_queries.size()) {
    return Status::InvalidArgument("solution shape mismatch");
  }

  EndToEndReport report;
  report.num_queries = queries_.size();
  for (size_t i = 0; i < queries_.size(); ++i) {
    report.raw_cost += query_costs_[i];
    report.raw_latency_min +=
        query_reports_[i].CpuMinutes(options_.pricing.consts);
  }
  report.rewritten_latency_min = report.raw_latency_min;

  // Materialize exactly the selected views. The store honours the
  // operator budget (AUTOVIEW_VIEW_BUDGET_BYTES via FromEnv); each view
  // carries its solver utility so eviction, if the budget forces any,
  // drops the weakest utility-per-byte views first. A view rejected by
  // the budget degrades to base-table execution for its queries instead
  // of failing the run.
  MaterializedViewStore store(db_);
  std::vector<int64_t> view_ids(nz, -1);
  for (size_t j = 0; j < nz; ++j) {
    if (!solution.z[j]) continue;
    MaterializeOptions mopts;
    mopts.utility = problem_.MaxBenefit(j) - problem_.overhead[j];
    Result<const MaterializedView*> view =
        store.Materialize(candidates_[j].plan, executor_, mopts);
    if (!view.ok()) {
      if (view.status().code() == StatusCode::kResourceExhausted) continue;
      return view.status();
    }
    view_ids[j] = view.value()->id;
    ++report.num_views;
    report.view_overhead += candidates_[j].overhead;
  }

  // Rewrite + execute each associated query against a pinned snapshot:
  // pinned views cannot be physically dropped mid-serve, and views the
  // budget evicted simply do not appear (their queries run on base
  // tables).
  ViewSetSnapshot snapshot = store.PinLive();
  std::map<int64_t, const MaterializedView*> live;
  for (const MaterializedView* view : snapshot.views()) live[view->id] = view;
  Rewriter rewriter(&db_->catalog());
  for (size_t row = 0; row < solution.y.size(); ++row) {
    std::vector<const MaterializedView*> assigned;
    for (size_t j = 0; j < nz; ++j) {
      if (!solution.y[row][j] || view_ids[j] < 0) continue;
      if (auto it = live.find(view_ids[j]); it != live.end()) {
        assigned.push_back(it->second);
      }
    }
    if (assigned.empty()) continue;
    const size_t qi = analysis_.associated_queries[row];
    size_t substitutions = 0;
    AV_ASSIGN_OR_RETURN(
        PlanNodePtr rewritten,
        rewriter.RewriteAll(queries_[qi], assigned, &substitutions));
    if (substitutions == 0) continue;
    AV_ASSIGN_OR_RETURN(CostReport cost, executor_.ExecuteForCost(*rewritten));
    ++report.num_rewritten;
    const double rewritten_cost = options_.pricing.QueryCost(cost);
    report.benefit += query_costs_[qi] - rewritten_cost;
    report.rewritten_latency_min +=
        cost.CpuMinutes(options_.pricing.consts) -
        query_reports_[qi].CpuMinutes(options_.pricing.consts);
  }

  snapshot.Release();
  AV_RETURN_NOT_OK(store.Clear());
  return report;
}

}  // namespace autoview
