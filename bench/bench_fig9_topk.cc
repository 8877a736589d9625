// Reproduces Fig. 9: utility vs k for the four greedy Top-k methods
// (TopkFreq / TopkOver / TopkBen / TopkNorm) on JOB, WK1, WK2.
//
// Paper shape: almost every curve first rises to a maximum and then
// falls (benefit accumulates, then overhead dominates); peaks land at
// different k per strategy.

#include "bench_common.h"
#include "select/selector.h"

int main() {
  using namespace autoview;
  using namespace autoview::bench;

  PrintHeader("Figure 9: utility ($) of top-k greedy methods vs k");
  for (const char* name : {"JOB", "WK1", "WK2"}) {
    BenchSetup setup = MakeBench(name);
    const MvsProblem& problem = setup.system->problem();
    const size_t nz = problem.num_views();
    const size_t step = std::max<size_t>(1, nz / 12);
    std::printf("\n[%s] |Z| = %zu (k sweeps by %zu)\n", name, nz, step);

    std::vector<std::vector<double>> curves;
    for (TopkStrategy strategy :
         {TopkStrategy::kFrequency, TopkStrategy::kOverhead,
          TopkStrategy::kBenefit, TopkStrategy::kNormalized}) {
      auto curve = TopkUtilityCurve(problem, strategy, step);
      AV_CHECK(curve.ok());
      curves.push_back(std::move(curve).value());
    }

    TablePrinter table({"k", "TopkFreq", "TopkOver", "TopkBen", "TopkNorm"});
    for (size_t p = 0; p < curves[0].size(); ++p) {
      std::vector<std::string> row = {StrFormat("%zu", p * step)};
      for (const auto& curve : curves) {
        row.push_back(FormatDouble(curve[p] * 1e6, 1));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("(utility in $ x 1e-6; rows are k values)\n");

    // Report each curve's peak.
    const char* names[] = {"TopkFreq", "TopkOver", "TopkBen", "TopkNorm"};
    for (size_t c = 0; c < curves.size(); ++c) {
      size_t best = 0;
      for (size_t p = 0; p < curves[c].size(); ++p) {
        if (curves[c][p] > curves[c][best]) best = p;
      }
      std::printf("  %s peak: utility %.3e$ at k = %zu\n", names[c],
                  curves[c][best], best * step);
    }
  }
  std::printf(
      "\nPaper shape: curves rise to a maximum and then fall as the\n"
      "materialization overhead starts to dominate the benefit.\n");
  return 0;
}
