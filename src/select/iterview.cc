#include "select/iterview.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "ilp/problem_index.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

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

Aggregates ComputeAggregates(const MvsProblem& problem,
                             const std::vector<double>& b_cur,
                             const std::vector<bool>& z) {
  Aggregates agg;
  const size_t nz = problem.num_views();
  agg.max_benefit.resize(nz);
  for (size_t k = 0; k < nz; ++k) {
    agg.max_benefit[k] = problem.MaxBenefit(k);
    agg.o_max += problem.overhead[k];
    if (z[k]) agg.o_cur += problem.overhead[k];
    agg.b_cur_total += b_cur[k];
    agg.b_max_total += agg.max_benefit[k];
  }
  return agg;
}

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

/// ComputeAggregates with the O(|Q| x |Z|) part — the per-view B_max
/// recomputation — served from the index. The remaining O(|Z|) loop
/// accumulates o_cur / b_cur_total in the same ascending order as the
/// naive pass, so every aggregate is bit-identical.
Aggregates ComputeAggregatesIndexed(const MvsProblemIndex& index,
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

/// ZOptStep driven by the index; appends each flipped view to `flipped`
/// so the caller can propagate dirtiness. Flip decisions are identical
/// to ZOptStep's.
void ZOptStepRecording(const MvsProblemIndex& index,
                       const std::vector<double>& b_cur, double tau,
                       bool frozen, std::vector<bool>* z,
                       std::vector<size_t>* flipped) {
  const Aggregates agg = ComputeAggregatesIndexed(index, b_cur, *z);
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

double FlipProbability(const MvsProblem& problem,
                       const std::vector<double>& b_cur, size_t j,
                       const std::vector<bool>& z) {
  return FlipProbabilityWith(problem.overhead,
                             ComputeAggregates(problem, b_cur, z), b_cur, j,
                             z);
}

void ZOptStep(const MvsProblem& problem, const std::vector<double>& b_cur,
              double tau, bool frozen, std::vector<bool>* z) {
  const Aggregates agg = ComputeAggregates(problem, b_cur, *z);
  for (size_t j = 0; j < z->size(); ++j) {
    if (frozen && (*z)[j]) continue;  // BigSub: selected stays selected
    if (FlipProbabilityWith(problem.overhead, agg, b_cur, j, *z) >= tau) {
      (*z)[j] = !(*z)[j];
    }
  }
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

/// Outcome of one independent seeded trial.
struct TrialResult {
  MvsSolution solution;
  std::vector<double> trace;
  bool timed_out = false;
};

/// One full IterView run (function IterView of the paper) under its own
/// Rng stream. Pure: reads only `problem`/`options`, writes only the
/// returned value, so trials can run concurrently.
TrialResult RunTrial(const MvsProblem& problem,
                     const IterViewSelector::Options& options,
                     uint64_t seed) {
  TrialResult trial;
  Rng rng(seed);
  const size_t nz = problem.num_views();
  const size_t nq = problem.num_queries();
  YOptSolver yopt(&problem);

  // Random initialization of Z and Y (function IterView, lines 3-9).
  std::vector<bool> z(nz);
  for (size_t j = 0; j < nz; ++j) z[j] = rng.Bernoulli(0.5);
  std::vector<std::vector<bool>> y(nq, std::vector<bool>(nz, false));
  for (size_t i = 0; i < nq; ++i) {
    for (size_t j = 0; j < nz; ++j) {
      if (!z[j] || problem.benefit[i][j] <= 0) continue;
      bool conflict = false;
      for (size_t k = 0; k < nz && !conflict; ++k) {
        conflict = k != j && y[i][k] && problem.overlap[j][k];
      }
      if (!conflict) y[i][j] = rng.Bernoulli(0.5);
    }
  }

  MvsSolution& best = trial.solution;
  best.z = z;
  best.y = y;
  best.utility = EvaluateUtility(problem, z, y);
  trial.trace.push_back(best.utility);
  GlobalSelection().RecordUtilityCells(static_cast<uint64_t>(nq) * nz);

  std::vector<double> b_cur(nz, 0.0);
  for (size_t iter = 0; iter < options.iterations; ++iter) {
    // Anytime behavior: bail out between iterations, keeping the best
    // incumbent found so far. On an infinite deadline this never reads
    // the clock, so deadline-free runs stay bit-identical.
    if (StopRequested(options.deadline, options.cancel)) {
      trial.timed_out = true;
      break;
    }
    // Current benefit per view under y.
    std::fill(b_cur.begin(), b_cur.end(), 0.0);
    for (size_t i = 0; i < nq; ++i) {
      for (size_t j = 0; j < nz; ++j) {
        if (y[i][j] && problem.benefit[i][j] > 0) {
          b_cur[j] += problem.benefit[i][j];
        }
      }
    }
    const double tau = rng.Uniform01();
    const bool frozen = iter >= options.freeze_selected_after;
    internal::ZOptStep(problem, b_cur, tau, frozen, &z);
    y = yopt.SolveAll(z);
    GlobalSelection().RecordQueriesSolved(nq);
    const double utility = EvaluateUtility(problem, z, y);
    GlobalSelection().RecordUtilityCells(static_cast<uint64_t>(nq) * nz);
    trial.trace.push_back(utility);
    if (utility > best.utility) {
      best.z = z;
      best.y = y;
      best.utility = utility;
    }
  }
  return trial;
}

/// The incremental engine's trial: same Rng stream and the same
/// arithmetic as RunTrial — the equivalence tests assert bit-identical
/// traces and solutions — but per-iteration work scales with what the
/// Z-Opt pass actually flipped:
///  * per-view aggregates (B_max, the totals) come precomputed from the
///    index instead of an O(|Q| x |Z|) rescan,
///  * Y-Opt re-solves only queries whose positive support meets a
///    flipped view (all queries on the first pass: the random-init rows
///    are not solver outputs, so none may be reused),
///  * b_cur is re-derived only for views whose usage column changed,
///  * utilities are sparse ordered re-sums over the CSR support.
/// Sums are *recomputed sparsely in the naive summation order*, never
/// float-delta-adjusted, which is what makes them bit-identical despite
/// FP non-associativity (DESIGN.md §9).
///
/// With `warm_z` the trial starts from that incumbent instead of a random
/// configuration: y = Y-Opt(warm_z), and no Bernoulli draws. That y is a
/// solver output, so the dirty-query machinery is sound from iteration
/// one. The best-so-far starts at the start state's evaluation, so a
/// warm trial can only improve on the warm utility.
TrialResult RunTrialIncremental(const MvsProblemIndex& index,
                                const IterViewSelector::Options& options,
                                uint64_t seed,
                                const std::vector<bool>* warm_z = nullptr) {
  TrialResult trial;
  Rng rng(seed);
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
    // Random initialization of Z and Y (function IterView, lines 3-9),
    // drawing the exact Bernoulli sequence of the naive loop: that loop
    // visits selected positive-benefit views in ascending order, i.e.
    // the CSR row filtered by z. Its conflict probe scanned all |Z|
    // views per cell (the latent |Q| x |Z| x |Z| quadratic); probing
    // whichever is smaller of the overlap adjacency and the row's
    // already-used views gives the same boolean at O(min(degree,
    // support)) cost.
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

  MvsSolution& best = trial.solution;
  best.z = z;
  best.y = y;
  best.utility = index.EvaluateUtilitySparse(z, y);
  trial.trace.push_back(best.utility);
  GlobalSelection().RecordUtilityCells(index.NumPositive());

  // b_cur always equals what the naive loop would recompute from the
  // current y at the top of the next iteration (CurrentBenefit performs
  // the identical ascending-query summation).
  std::vector<double> b_cur(nz, 0.0);
  for (size_t j = 0; j < nz; ++j) b_cur[j] = index.CurrentBenefit(j, y);

  std::vector<size_t> flipped;
  std::vector<bool> query_dirty(nq, false);
  std::vector<size_t> dirty_queries;
  std::vector<bool> view_dirty(nz, false);
  std::vector<size_t> dirty_views;

  for (size_t iter = 0; iter < options.iterations; ++iter) {
    if (StopRequested(options.deadline, options.cancel)) {
      trial.timed_out = true;
      break;
    }
    const double tau = rng.Uniform01();
    const bool frozen = iter >= options.freeze_selected_after;
    flipped.clear();
    internal::ZOptStepRecording(index, b_cur, tau, frozen, &z, &flipped);

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
    trial.trace.push_back(utility);
    if (utility > best.utility) {
      best.z = z;
      best.y = y;
      best.utility = utility;
    }
  }
  return trial;
}

/// Runs `restarts` independent seeded trials of `run_trial(seed)` on the
/// configured pool and reduces them deterministically (strict > keeps
/// the lowest restart index on ties, regardless of which worker finished
/// first). Shared by the dense and index-only entry points.
template <typename TrialFn>
MvsSolution RunRestartsAndReduce(const IterViewSelector::Options& options,
                                 size_t nq, size_t nz, TrialFn&& run_trial,
                                 std::vector<double>* trace_out) {
  const size_t restarts = std::max<size_t>(1, options.restarts);
  std::vector<TrialResult> trials(restarts);
  auto run = [&](size_t r) {
    // Restart 0 keeps the raw seed so restarts == 1 reproduces the
    // historical single-trial stream exactly.
    const uint64_t seed =
        r == 0 ? options.seed : Rng::StreamSeed(options.seed, r);
    trials[r] = run_trial(seed);
  };
  if (restarts == 1) {
    run(0);
  } else {
    ThreadPool& pool = options.pool ? *options.pool : DefaultPool();
    pool.ParallelFor(0, restarts, run);
  }

  size_t winner = 0;
  bool timed_out = trials[0].timed_out;
  for (size_t r = 1; r < restarts; ++r) {
    timed_out = timed_out || trials[r].timed_out;
    if (trials[r].solution.utility > trials[winner].solution.utility) {
      winner = r;
    }
  }
  *trace_out = std::move(trials[winner].trace);
  MvsSolution best = std::move(trials[winner].solution);
  best.timed_out = timed_out;
  if (timed_out) {
    GlobalRobustness().RecordTimeout();
    // Anytime guarantee: under a deadline so tight that only the random
    // initialization ran, the incumbent can be worse than materializing
    // nothing. The empty configuration is always feasible with utility
    // 0, so never return less than that.
    if (best.utility < 0.0) {
      best.z.assign(nz, false);
      best.y.assign(nq, std::vector<bool>(nz, false));
      best.utility = 0.0;
      trace_out->push_back(best.utility);
    }
  }
  return best;
}

}  // namespace

Result<MvsSolution> IterViewSelector::Select(const MvsProblem& problem) {
  AV_RETURN_NOT_OK(problem.Validate());
  if (options_.engine == SelectionEngine::kIncremental) {
    // One index serves every trial: it is immutable after construction,
    // so concurrent restarts share it without synchronization. Routing
    // the dense entry point through SelectIndexed makes equivalence with
    // the compact-built path structural rather than asserted.
    const MvsProblemIndex index(problem);
    return SelectIndexed(index);
  }
  trace_.clear();
  MvsSolution best = RunRestartsAndReduce(
      options_, problem.num_queries(), problem.num_views(),
      [&](uint64_t seed) { return RunTrial(problem, options_, seed); },
      &trace_);
  return best;
}

Result<MvsSolution> IterViewSelector::SelectIndexed(
    const MvsProblemIndex& index) {
  trace_.clear();
  MvsSolution best = RunRestartsAndReduce(
      options_, index.num_queries(), index.num_views(),
      [&](uint64_t seed) { return RunTrialIncremental(index, options_, seed); },
      &trace_);
  return best;
}

Result<MvsSolution> IterViewSelector::ReselectDelta(
    const MvsProblemIndex& index, const std::vector<bool>& warm_z) {
  if (warm_z.size() != index.num_views()) {
    return Status::InvalidArgument("warm_z size does not match index views");
  }
  trace_.clear();
  // Monotonicity through the anytime floor: every trial's best starts
  // at the warm evaluation u_w, so the reduced best is >= u_w. The
  // timeout floor substitutes all-zeros (utility 0) only when best < 0,
  // i.e. only when u_w < 0 — and 0 > u_w there, so the guarantee holds
  // on both branches.
  MvsSolution best = RunRestartsAndReduce(
      options_, index.num_queries(), index.num_views(),
      [&](uint64_t seed) {
        return RunTrialIncremental(index, options_, seed, &warm_z);
      },
      &trace_);
  return best;
}

}  // namespace autoview
