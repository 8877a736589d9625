// Reproduces Table IV: best utility and saving ratio of the view
// selection methods — four greedies (at their best k), BigSub, RLView,
// and OPT (exact ILP; solvable on JOB-scale only, as in the paper).
//
// Paper reference (ratio %): JOB 8.97/8.83/11.44/11.70/11.57/12.02 with
// OPT 12.86; WK1 4.44/5.11/4.99/5.08/5.50/5.76; WK2 9.15/10.19/10.18/
// 10.17/10.73/11.14. The shape: iteration-based methods beat greedies,
// RLView beats BigSub, OPT (when solvable) bounds them all.

#include "bench_common.h"
#include "ilp/branch_and_bound.h"
#include "select/iterview.h"
#include "select/rlview.h"
#include "select/selector.h"

namespace {

using namespace autoview;
using namespace autoview::bench;

struct MethodRow {
  std::string name;
  std::string k;
  double utility = 0.0;
};

}  // namespace

int main() {
  PrintHeader("Table IV: optimal results of the view selection methods");
  for (const char* name : {"JOB", "WK1", "WK2"}) {
    BenchSetup setup = MakeBench(name);
    const MvsProblem& problem = setup.system->problem();
    double total_query_cost = 0.0;
    for (double c : setup.system->query_costs()) total_query_cost += c;
    const size_t nz = problem.num_views();
    std::printf("\n[%s] |Z| = %zu, total workload cost %.3e$\n", name, nz,
                total_query_cost);

    std::vector<MethodRow> rows;

    // Greedy methods: sweep k, keep the first k of the best utility.
    for (TopkStrategy strategy :
         {TopkStrategy::kFrequency, TopkStrategy::kOverhead,
          TopkStrategy::kBenefit, TopkStrategy::kNormalized}) {
      auto curve = TopkUtilityCurve(problem, strategy, 1);
      AV_CHECK(curve.ok());
      double best = 0.0;
      size_t best_k = 0;
      for (size_t k = 0; k < curve.value().size(); ++k) {
        if (curve.value()[k] > best) {
          best = curve.value()[k];
          best_k = k;
        }
      }
      rows.push_back({TopkStrategyName(strategy), StrFormat("%zu", best_k),
                      best});
    }

    // Iteration-based methods; k = iteration of the best utility.
    const size_t iters = name == std::string("JOB") ? 100 : 160;
    IterViewSelector bigsub = IterViewSelector::BigSub(iters, 23);
    auto bigsub_result = bigsub.Select(problem);
    AV_CHECK(bigsub_result.ok());
    size_t bigsub_k = 0;
    for (size_t i = 0; i < bigsub.utility_trace().size(); ++i) {
      if (bigsub.utility_trace()[i] >= bigsub_result.value().utility) {
        bigsub_k = i;
        break;
      }
    }
    rows.push_back({"BigSub", StrFormat("%zu", bigsub_k),
                    bigsub_result.value().utility});

    RLViewSelector::Options rl_opts;
    rl_opts.init_iterations = 10;
    rl_opts.episodes = name == std::string("JOB") ? 30 : 20;
    rl_opts.seed = 23;
    RLViewSelector rlview(rl_opts);
    auto rl_result = rlview.Select(problem);
    AV_CHECK(rl_result.ok());
    size_t rl_k = 0;
    for (size_t i = 0; i < rlview.utility_trace().size(); ++i) {
      if (rlview.utility_trace()[i] >= rl_result.value().utility) {
        rl_k = i;
        break;
      }
    }
    rows.push_back(
        {"RLView", StrFormat("%zu", rl_k), rl_result.value().utility});

    // OPT: exact ILP. Succeeds on JOB scale; the paper's solvers fail on
    // WK1/WK2 and so (by design) may this budgeted search.
    BranchAndBoundSolver::Options bb_opts;
    bb_opts.max_nodes = 4'000'000;
    BranchAndBoundSolver solver(bb_opts);
    auto opt_result = solver.Solve(problem);
    if (opt_result.ok()) {
      rows.push_back({"OPT", "-", opt_result.value().utility});
    } else {
      std::printf("  OPT: %s\n", opt_result.status().ToString().c_str());
      rows.push_back({"OPT", "-", -1.0});
    }

    TablePrinter table({"method", "k", "utility($ x 1e-6)", "ratio(%)"});
    for (const auto& row : rows) {
      table.AddRow(
          {row.name, row.k,
           row.utility < 0 ? "fail" : FormatDouble(row.utility * 1e6, 2),
           row.utility < 0
               ? "-"
               : FormatDouble(100.0 * row.utility / total_query_cost, 2)});
    }
    table.Print();
  }
  std::printf(
      "\nPaper shape: iteration-based methods (BigSub, RLView) beat the\n"
      "greedies, RLView beats BigSub, and OPT (JOB only) upper-bounds\n"
      "everything.\n");
  return 0;
}
