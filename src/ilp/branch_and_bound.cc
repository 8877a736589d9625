#include "ilp/branch_and_bound.h"

#include <algorithm>

#include "ilp/problem_index.h"

namespace autoview {

namespace {

/// Search state threaded through the recursion.
struct SearchContext {
  const MvsProblem* problem;
  const YOptSolver* yopt;
  std::vector<size_t> order;          // variable order (net value desc)
  std::vector<double> max_benefit;    // cached MaxBenefit per view
  std::vector<bool> z;
  double best_utility;
  std::vector<bool> best_z;
  size_t tight_depth = 0;             // depths using the Y-Opt bound
  uint64_t nodes = 0;
  uint64_t max_nodes = 0;
  uint64_t yopt_solves = 0;
  uint64_t max_yopt_solves = 0;
  bool exhausted = false;
};

/// Tight admissible bound: solve the exact per-query Y-Opt with every
/// undecided view optimistically materialized, charging overhead only
/// for decided-on views. Costly (|Q| independent-set solves), so it is
/// applied only at shallow depths where it prunes whole subtrees.
double TightBound(const SearchContext& ctx, size_t pos) {
  std::vector<bool> optimistic = ctx.z;
  for (size_t p = pos; p < ctx.order.size(); ++p) {
    optimistic[ctx.order[p]] = true;
  }
  double bound = 0.0;
  for (size_t i = 0; i < ctx.problem->num_queries(); ++i) {
    std::vector<bool> row = ctx.yopt->SolveQuery(i, optimistic);
    for (size_t j = 0; j < row.size(); ++j) {
      if (row[j]) bound += ctx.problem->benefit[i][j];
    }
  }
  for (size_t p = 0; p < pos; ++p) {
    const size_t j = ctx.order[p];
    if (ctx.z[j]) bound -= ctx.problem->overhead[j];
  }
  return bound;
}

/// Branches on order[pos]; `bound` is an admissible upper bound of the
/// current partial assignment. In any feasible completion, view j
/// contributes (collected benefit - z_j * O_j) <= MaxBenefit(j) - O_j
/// when selected and 0 otherwise, so an undecided view adds at most
/// max(0, MaxBenefit(j) - O_j). Overlap competition is relaxed, so the
/// bound never underestimates.
void Branch(SearchContext* ctx, size_t pos, double bound) {
  if (ctx->exhausted) return;
  if (++ctx->nodes > ctx->max_nodes ||
      ctx->yopt_solves > ctx->max_yopt_solves) {
    ctx->exhausted = true;
    return;
  }
  if (bound <= ctx->best_utility) return;
  if (pos > 0 && pos <= ctx->tight_depth) {
    ctx->yopt_solves += ctx->problem->num_queries();
    if (TightBound(*ctx, pos) <= ctx->best_utility) return;
  }
  if (pos == ctx->order.size()) {
    ctx->yopt_solves += ctx->problem->num_queries();
    const double utility = ctx->yopt->UtilityOf(ctx->z);
    if (utility > ctx->best_utility) {
      ctx->best_utility = utility;
      ctx->best_z = ctx->z;
    }
    return;
  }
  const size_t j = ctx->order[pos];
  const double net = ctx->max_benefit[j] - ctx->problem->overhead[j];
  const double optimistic = std::max(0.0, net);
  // z_j = 1 first (variables are ordered by attractiveness).
  ctx->z[j] = true;
  Branch(ctx, pos + 1, bound - optimistic + net);
  ctx->z[j] = false;
  Branch(ctx, pos + 1, bound - optimistic);
}

}  // namespace

Result<MvsSolution> BranchAndBoundSolver::Solve(
    const MvsProblem& problem) const {
  AV_RETURN_NOT_OK(problem.Validate());
  const MvsProblemIndex index(problem);
  YOptSolver yopt(&index);

  SearchContext ctx;
  ctx.problem = &problem;
  ctx.yopt = &yopt;
  ctx.z.assign(problem.num_views(), false);
  ctx.best_z = ctx.z;
  ctx.best_utility = 0.0;  // all-zero solution is always feasible
  ctx.max_nodes = options_.max_nodes;
  ctx.max_yopt_solves = options_.max_yopt_solves;
  ctx.tight_depth = options_.tight_bound_depth;
  ctx.max_benefit.resize(problem.num_views());
  double root_bound = 0.0;
  for (size_t j = 0; j < problem.num_views(); ++j) {
    ctx.max_benefit[j] = problem.MaxBenefit(j);
    root_bound += std::max(0.0, ctx.max_benefit[j] - problem.overhead[j]);
  }
  ctx.order.resize(problem.num_views());
  for (size_t j = 0; j < ctx.order.size(); ++j) ctx.order[j] = j;
  std::sort(ctx.order.begin(), ctx.order.end(), [&](size_t a, size_t b) {
    return ctx.max_benefit[a] - problem.overhead[a] >
           ctx.max_benefit[b] - problem.overhead[b];
  });

  // Seed the incumbent with the greedy "all net-positive views"
  // solution; a strong initial lower bound prunes most of the tree.
  std::vector<bool> greedy(problem.num_views(), false);
  for (size_t j = 0; j < problem.num_views(); ++j) {
    greedy[j] = ctx.max_benefit[j] > problem.overhead[j];
  }
  const double greedy_utility = yopt.UtilityOf(greedy);
  if (greedy_utility > ctx.best_utility) {
    ctx.best_utility = greedy_utility;
    ctx.best_z = greedy;
  }

  Branch(&ctx, 0, root_bound);
  nodes_ = ctx.nodes;
  if (ctx.exhausted) {
    return Status::ResourceExhausted(
        "branch-and-bound search budget exceeded (instance too large, as "
        "the paper reports for its ILP solvers on WK1/WK2)");
  }
  MvsSolution solution;
  solution.z = ctx.best_z;
  solution.y = yopt.SolveAll(solution.z);
  solution.utility = EvaluateUtility(problem, solution.z, solution.y);
  return solution;
}

}  // namespace autoview
