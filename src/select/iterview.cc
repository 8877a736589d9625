#include "select/iterview.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "ilp/problem_index.h"
#include "util/metrics.h"

namespace autoview {

namespace internal {

namespace {

/// Workload-level aggregates used by Eq. 3, computed once per Z-Opt pass.
struct Aggregates {
  double o_max = 0.0;        ///< sum of all overheads
  double o_cur = 0.0;        ///< overhead of currently selected views
  double b_cur_total = 0.0;  ///< sum of current per-view benefits
  double b_max_total = 0.0;  ///< sum of maximum per-view benefits
  std::vector<double> max_benefit;
};

double FlipProbabilityWith(const std::vector<double>& overhead,
                           const Aggregates& agg,
                           const std::vector<double>& b_cur, size_t j,
                           const std::vector<bool>& z) {
  const double o_j = std::max(overhead[j], 1e-12);
  double p_overhead, p_benefit;
  if (z[j]) {
    // Selected view: flip-prone when it is expensive relative to the
    // currently selected set and contributes little current benefit.
    p_overhead = agg.o_cur > 0 ? o_j / agg.o_cur : 1.0;
    p_benefit =
        agg.b_cur_total > 0 ? 1.0 - b_cur[j] / agg.b_cur_total : 1.0;
  } else {
    // Unselected view: flip-prone when overhead headroom remains and its
    // benefit-per-overhead beats the global average.
    p_overhead = agg.o_max > 0 ? 1.0 - agg.o_cur / agg.o_max : 0.0;
    const double global_rate =
        agg.o_max > 0 ? agg.b_max_total / agg.o_max : 0.0;
    p_benefit =
        global_rate > 0 ? (agg.max_benefit[j] / o_j) / global_rate : 0.0;
  }
  p_overhead = std::clamp(p_overhead, 0.0, 1.0);
  p_benefit = std::clamp(p_benefit, 0.0, 1.0);
  return p_overhead * p_benefit;
}

/// The aggregates of Eq. 3. B_max and the two totals come precomputed
/// from the index; the O(|Z|) loop accumulates o_cur / b_cur_total in
/// ascending view order, the order the dense pass uses.
Aggregates ComputeAggregates(const MvsProblemIndex& index,
                             const std::vector<double>& b_cur,
                             const std::vector<bool>& z) {
  Aggregates agg;
  const size_t nz = index.num_views();
  const auto& overhead = index.Overhead();
  agg.max_benefit.resize(nz);
  agg.o_max = index.TotalOverhead();
  agg.b_max_total = index.TotalMaxBenefit();
  for (size_t k = 0; k < nz; ++k) {
    agg.max_benefit[k] = index.MaxBenefit(k);
    if (z[k]) agg.o_cur += overhead[k];
    agg.b_cur_total += b_cur[k];
  }
  return agg;
}

/// One Z-Opt pass (Eq. 3): flips each z_j whose flip probability
/// p_overhead * p_benefit reaches the threshold tau, and appends it to
/// `flipped` so the caller can propagate dirtiness. `frozen` disables
/// 1->0 flips (BigSub).
void ZOptPass(const MvsProblemIndex& index, const std::vector<double>& b_cur,
              double tau, bool frozen, std::vector<bool>* z,
              std::vector<size_t>* flipped) {
  const Aggregates agg = ComputeAggregates(index, b_cur, *z);
  const std::vector<double>& overhead = index.Overhead();
  for (size_t j = 0; j < z->size(); ++j) {
    if (frozen && (*z)[j]) continue;  // BigSub: selected stays selected
    if (FlipProbabilityWith(overhead, agg, b_cur, j, *z) >= tau) {
      (*z)[j] = !(*z)[j];
      flipped->push_back(j);
    }
  }
}

}  // namespace

double FlipProbability(const MvsProblemIndex& index,
                       const std::vector<double>& b_cur, size_t j,
                       const std::vector<bool>& z) {
  return FlipProbabilityWith(index.Overhead(),
                             ComputeAggregates(index, b_cur, z), b_cur, j,
                             z);
}

}  // namespace internal

IterViewSelector IterViewSelector::IterView(size_t iterations, uint64_t seed) {
  Options options;
  options.iterations = iterations;
  options.seed = seed;
  return IterViewSelector(options);
}

IterViewSelector IterViewSelector::BigSub(size_t iterations, uint64_t seed) {
  Options options;
  options.iterations = iterations;
  options.freeze_selected_after = iterations / 2;
  options.seed = seed;
  return IterViewSelector(options);
}

namespace {

/// One IterView run (function IterView of the paper) on the Rng stream
/// `options.seed`: returns the best (z, y) seen, with `timed_out` set if
/// the deadline or token stopped it, and writes the per-iteration
/// utilities to `trace`. Per-iteration work scales with what the Z-Opt pass
/// flipped:
///  * per-view aggregates (B_max, the totals) come precomputed from the
///    index instead of an O(|Q| x |Z|) rescan,
///  * Y-Opt re-solves only queries whose positive support meets a
///    flipped view (all queries on the first pass: the random-init rows
///    are not solver outputs, so none may be reused),
///  * b_cur is re-derived only for views whose usage column changed,
///  * utilities are sparse ordered re-sums over the CSR support.
/// Sums are *recomputed sparsely in the dense summation order*, never
/// float-delta-adjusted, which is what makes the flip sequence, trace
/// and solution bit-identical to the dense loop of
/// tests/selection_oracle.h despite FP non-associativity (DESIGN.md §9).
///
/// With `warm_z` the trial starts from that incumbent instead of a random
/// configuration: y = Y-Opt(warm_z), and no Bernoulli draws. That y is a
/// solver output, so the dirty-query machinery is sound from iteration
/// one. The best-so-far starts at the start state's evaluation, so a
/// warm trial can only improve on the warm utility.
MvsSolution RunTrial(const MvsProblemIndex& index,
                     const IterViewSelector::Options& options,
                     std::vector<double>* trace,
                     const std::vector<bool>* warm_z = nullptr) {
  Rng rng(options.seed);
  const size_t nz = index.num_views();
  const size_t nq = index.num_queries();
  YOptSolver yopt(&index);

  std::vector<bool> z;
  std::vector<std::vector<bool>> y;
  if (warm_z != nullptr) {
    z = *warm_z;
    y = yopt.SolveAll(z);
    GlobalSelection().RecordQueriesSolved(nq);
  } else {
    // Random initialization of Z and Y (function IterView, lines 3-9):
    // selected positive-benefit views in ascending order, i.e. the CSR
    // row filtered by z, each drawn unless it conflicts with a view the
    // row already uses. Probing whichever is smaller of the overlap
    // adjacency and the row's already-used views answers the conflict
    // test at O(min(degree, support)) cost instead of a |Z| scan.
    z.resize(nz);
    for (size_t j = 0; j < nz; ++j) z[j] = rng.Bernoulli(0.5);
    y.assign(nq, std::vector<bool>(nz, false));
    std::vector<size_t> used;
    for (size_t i = 0; i < nq; ++i) {
      used.clear();
      for (const MvsProblemIndex::Entry& e : index.Row(i)) {
        if (!z[e.index]) continue;
        bool conflict = false;
        const std::vector<size_t>& adjacent = index.Overlapping(e.index);
        if (adjacent.size() < used.size()) {
          for (size_t k : adjacent) {
            if (y[i][k]) {
              conflict = true;
              break;
            }
          }
        } else {
          for (size_t k : used) {
            if (index.OverlapTest(e.index, k)) {
              conflict = true;
              break;
            }
          }
        }
        if (!conflict && rng.Bernoulli(0.5)) {
          y[i][e.index] = true;
          used.push_back(e.index);
        }
      }
    }
  }

  MvsSolution best;
  best.z = z;
  best.y = y;
  best.utility = index.EvaluateUtilitySparse(z, y);
  trace->assign(1, best.utility);
  GlobalSelection().RecordUtilityCells(index.NumPositive());

  // b_cur always equals a fresh ascending-query sum over the current y
  // (CurrentBenefit), kept current by re-deriving only dirty views.
  std::vector<double> b_cur(nz, 0.0);
  for (size_t j = 0; j < nz; ++j) b_cur[j] = index.CurrentBenefit(j, y);

  std::vector<size_t> flipped;
  std::vector<bool> query_dirty(nq, false);
  std::vector<size_t> dirty_queries;
  std::vector<bool> view_dirty(nz, false);
  std::vector<size_t> dirty_views;

  for (size_t iter = 0; iter < options.iterations; ++iter) {
    if (StopRequested(options.deadline, options.cancel)) {
      best.timed_out = true;
      break;
    }
    const double tau = rng.Uniform01();
    const bool frozen = iter >= options.freeze_selected_after;
    flipped.clear();
    internal::ZOptPass(index, b_cur, tau, frozen, &z, &flipped);

    // Queries to re-solve: positive support meets a flipped view. A
    // clean query's optimum depends only on z restricted to its support,
    // which did not change, so its cached row is already the solver's
    // bit-exact answer. The random start's rows are not solver outputs,
    // so its first pass re-solves every query.
    dirty_queries.clear();
    if (iter == 0 && warm_z == nullptr) {
      for (size_t i = 0; i < nq; ++i) dirty_queries.push_back(i);
    } else {
      for (size_t j : flipped) {
        for (const MvsProblemIndex::Entry& e : index.Column(j)) {
          if (e.benefit > 0 && !query_dirty[e.index]) {
            query_dirty[e.index] = true;
            dirty_queries.push_back(e.index);
          }
        }
      }
      std::sort(dirty_queries.begin(), dirty_queries.end());
      for (size_t i : dirty_queries) query_dirty[i] = false;
    }
    GlobalSelection().RecordQueriesSolved(dirty_queries.size());

    dirty_views.clear();
    for (size_t i : dirty_queries) {
      std::vector<bool> solved = yopt.SolveQuery(i, z);
      for (const MvsProblemIndex::Entry& e : index.Row(i)) {
        if (y[i][e.index] != solved[e.index] && !view_dirty[e.index]) {
          view_dirty[e.index] = true;
          dirty_views.push_back(e.index);
        }
      }
      y[i] = std::move(solved);
    }
    for (size_t j : dirty_views) {
      b_cur[j] = index.CurrentBenefit(j, y);
      view_dirty[j] = false;
    }

    const double utility = index.EvaluateUtilitySparse(z, y);
    GlobalSelection().RecordUtilityCells(index.NumPositive());
    trace->push_back(utility);
    if (utility > best.utility) {
      best.z = z;
      best.y = y;
      best.utility = utility;
    }
  }
  return best;
}

/// The anytime floor of a stopped trial: under a deadline so tight that
/// only the random initialization ran, the incumbent can be worse than
/// materializing nothing. The empty configuration is always feasible
/// with utility 0, so a timed-out trial never returns less than that.
MvsSolution Conclude(MvsSolution best, size_t nq, size_t nz,
                     std::vector<double>* trace) {
  if (best.timed_out) {
    GlobalRobustness().RecordTimeout();
    if (best.utility < 0.0) {
      best.z.assign(nz, false);
      best.y.assign(nq, std::vector<bool>(nz, false));
      best.utility = 0.0;
      trace->push_back(best.utility);
    }
  }
  return best;
}

}  // namespace

Result<MvsSolution> IterViewSelector::Select(const MvsProblem& problem) {
  AV_RETURN_NOT_OK(problem.Validate());
  const MvsProblemIndex index(problem);
  return SelectIndexed(index);
}

Result<MvsSolution> IterViewSelector::SelectIndexed(
    const MvsProblemIndex& index) {
  return Conclude(RunTrial(index, options_, &trace_), index.num_queries(),
                  index.num_views(), &trace_);
}

Result<MvsSolution> IterViewSelector::ReselectDelta(
    const MvsProblemIndex& index, const std::vector<bool>& warm_z) {
  if (warm_z.size() != index.num_views()) {
    return Status::InvalidArgument("warm_z size does not match index views");
  }
  // Monotonicity through the anytime floor: the trial's best starts at
  // the warm evaluation u_w, so best >= u_w. The timeout floor
  // substitutes all-zeros (utility 0) only when best < 0, i.e. only
  // when u_w < 0 — and 0 > u_w there, so the guarantee holds on both
  // branches.
  return Conclude(RunTrial(index, options_, &trace_, &warm_z),
                  index.num_queries(), index.num_views(), &trace_);
}

}  // namespace autoview
