#pragma once

#include "select/selector.h"
#include "util/deadline.h"
#include "util/random.h"

namespace autoview {

class MvsProblemIndex;

/// \brief The paper's IterView function (§V-A2): randomized iterative
/// optimization alternating Z-Opt (probabilistic flips, Eq. 3) and the
/// exact per-query Y-Opt.
///
/// With `freeze_selected_after` set, a selected view can no longer be
/// unselected once that many iterations have elapsed — this is exactly
/// the convergence hack of BigSub [20], which the paper criticizes for
/// degenerating into a greedy method. The factory functions below
/// configure the two variants.
///
/// Every entry point reads the instance through one MvsProblemIndex and
/// runs one trial on the Rng stream `seed`. Each iteration re-solves
/// only the queries a flip touched and re-sums utilities sparsely in
/// the dense summation order, so results are bit-identical to the dense
/// loop of tests/selection_oracle.h.
class IterViewSelector : public ViewSelector {
 public:
  struct Options {
    size_t iterations = 100;                 ///< n (or n1 inside RLView)
    size_t freeze_selected_after = SIZE_MAX; ///< BigSub threshold
    uint64_t seed = 42;

    /// Anytime budget: the trial polls the deadline once per iteration
    /// and, when it expires, Select() returns the best incumbent seen so
    /// far with MvsSolution::timed_out set. The returned incumbent is
    /// always feasible with utility >= 0 (the all-zeros configuration is
    /// substituted if the search had only visited worse states).
    /// Infinite by default, which never reads the clock.
    Deadline deadline;
    /// Cooperative external cancellation, same semantics as an expired
    /// deadline. Copies share the flag; cancel from any thread.
    CancellationToken cancel;
  };

  explicit IterViewSelector(Options options)
      : options_(options), is_bigsub_(options.freeze_selected_after !=
                                      SIZE_MAX) {}

  /// IterView as in the paper (no freezing; oscillates, Fig. 10).
  static IterViewSelector IterView(size_t iterations, uint64_t seed = 42);

  /// BigSub [20]: freezing kicks in after half the iterations.
  static IterViewSelector BigSub(size_t iterations, uint64_t seed = 42);

  /// Validates `problem`, builds its index and calls SelectIndexed.
  Result<MvsSolution> Select(const MvsProblem& problem) override;

  /// Runs the trial against a prebuilt index (which may come from a
  /// CompactMvsProblem; no dense MvsProblem is needed).
  Result<MvsSolution> SelectIndexed(const MvsProblemIndex& index);

  /// Warm-started delta re-selection for the online advisor: seeds the
  /// trial with the incumbent selection `warm_z` over the (mutated)
  /// index, re-derives y = Y-Opt(warm_z), and runs the iteration loop
  /// from there — skipping both the random initialization
  /// and the first-iteration all-queries re-solve (the warm y IS a
  /// solver output, so the dirty-query machinery applies from iteration
  /// one). Monotonicity guarantee: the result's utility is never below
  /// the warm point's own utility under the new index — Y-Opt is
  /// per-query optimal for fixed z, the best-so-far incumbent starts at
  /// the warm evaluation, and the anytime floor only ever substitutes
  /// utility 0 when the incumbent is negative.
  Result<MvsSolution> ReselectDelta(const MvsProblemIndex& index,
                                    const std::vector<bool>& warm_z);

  std::string name() const override {
    return is_bigsub_ ? "BigSub" : "IterView";
  }

  /// The best (z, y) seen across iterations — IterView oscillates, so
  /// the final state is not necessarily the best one. Select() returns
  /// this best solution; the per-iteration trace shows the raw path.
  const Options& options() const { return options_; }

 private:
  Options options_;
  bool is_bigsub_;
};

namespace internal {

/// The flip probability of Eq. 3 for view j under selection z and
/// per-view current benefits b_cur. Exposed for unit testing.
double FlipProbability(const MvsProblemIndex& index,
                       const std::vector<double>& b_cur, size_t j,
                       const std::vector<bool>& z);

}  // namespace internal

}  // namespace autoview
