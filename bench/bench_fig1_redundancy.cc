// Reproduces Fig. 1: redundant computation across projects.
//
// (a) total queries vs queries containing redundant computation, per
//     project (paper: six Alibaba Cloud projects);
// (b) cumulative percentage of redundant queries as projects are added
//     (paper: rises to ~25% at 20 projects).
//
// A query "contains redundant computation" when one of its subqueries
// is equivalent to a subquery of another query (cluster size >= 2).

#include <set>

#include "bench_common.h"
#include "plan/builder.h"
#include "subquery/clusterer.h"

int main() {
  using namespace autoview;
  using namespace autoview::bench;

  CloudWorkloadSpec spec = Wk1Spec(BenchScale());
  spec.name = "fig1";
  spec.projects = 20;
  spec.queries = static_cast<size_t>(600 * BenchScale());
  spec.shared_fraction = 0.15;  // production-like redundancy (~20-25%)
  spec.seed = 31;
  GeneratedWorkload wk = GenerateCloudWorkload(spec);

  PlanBuilder builder(&wk.db->catalog());
  std::vector<PlanNodePtr> plans;
  for (const auto& sql : wk.sql) {
    auto plan = builder.BuildFromSql(sql);
    AV_CHECK(plan.ok());
    plans.push_back(plan.value());
  }
  const WorkloadAnalysis analysis = SubqueryClusterer().AnalyzeStreaming(
      plans.size(), [&plans](size_t qi) { return plans[qi]; });

  // Queries containing a shared (cluster size >= 2) subquery.
  std::set<size_t> redundant;
  for (const auto& cluster : analysis.clusters) {
    if (cluster.query_indices.size() < 2) continue;
    for (size_t qi : cluster.query_indices) redundant.insert(qi);
  }

  std::vector<size_t> total_per_project(spec.projects, 0);
  std::vector<size_t> redundant_per_project(spec.projects, 0);
  for (size_t qi = 0; qi < plans.size(); ++qi) {
    const size_t p = wk.project_of[qi];
    ++total_per_project[p];
    if (redundant.count(qi)) ++redundant_per_project[p];
  }

  PrintHeader("Figure 1(a): total vs redundant queries per project");
  TablePrinter per_project({"project", "total", "redundant", "redundant %"});
  for (size_t p = 0; p < 6; ++p) {
    const double pct =
        total_per_project[p]
            ? 100.0 * static_cast<double>(redundant_per_project[p]) /
                  static_cast<double>(total_per_project[p])
            : 0.0;
    per_project.AddRow({StrFormat("P%zu", p + 1),
                        StrFormat("%zu", total_per_project[p]),
                        StrFormat("%zu", redundant_per_project[p]),
                        FormatDouble(pct, 1)});
  }
  per_project.Print();

  PrintHeader("Figure 1(b): cumulative redundancy percentage vs #projects");
  TablePrinter cumulative({"# projects", "total", "redundant",
                           "cumulative %"});
  size_t run_total = 0, run_redundant = 0;
  for (size_t p = 0; p < spec.projects; ++p) {
    run_total += total_per_project[p];
    run_redundant += redundant_per_project[p];
    if ((p + 1) % 4 == 0) {
      cumulative.AddRow(
          {StrFormat("%zu", p + 1), StrFormat("%zu", run_total),
           StrFormat("%zu", run_redundant),
           FormatDouble(100.0 * static_cast<double>(run_redundant) /
                            static_cast<double>(run_total),
                        1)});
    }
  }
  cumulative.Print();
  std::printf(
      "\nPaper shape: every project carries a substantial redundant\n"
      "fraction and the cumulative percentage stays roughly stable\n"
      "(~20-25%%) as projects accumulate.\n");
  return 0;
}
