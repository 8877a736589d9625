#pragma once

#include <deque>
#include <memory>

#include "nn/modules.h"
#include "nn/optimizer.h"
#include "select/iterview.h"
#include "select/selector.h"

namespace autoview {

/// \brief RLView (Algorithm 2): the ILP optimization process modeled as
/// an MDP and solved with a DQN.
///
/// State e = (Z, Y); action = flip one z_j; environment = the exact
/// Y-Opt solver; reward = utility change. The Q network is the paper's
/// four fully-connected layers with 16/64/16/1 neurons (ReLU). Each
/// candidate action is scored from an 8-dim feature vector of (state,
/// action), experience tuples go into a replay memory, and the network
/// is fine-tuned with the one-step Q-learning target
/// Q'(e_t, a_t) = r_t + gamma * max_a Q(e_{t+1}, a).
class RLViewSelector : public ViewSelector {
 public:
  struct Options {
    size_t init_iterations = 10;   ///< n1: IterView warm start
    size_t episodes = 30;          ///< n2: RL epochs
    size_t max_steps_per_episode = 0;  ///< 0 = |Z| (the paper's bound)
    size_t memory_capacity = 512;  ///< replay memory size
    size_t min_memory = 32;        ///< n_m: fine-tune once this full
    size_t batch_size = 16;
    double gamma = 0.9;            ///< reward decay rate (Table II)
    double epsilon = 0.05;         ///< exploration rate (decays linearly)
    double learning_rate = 1e-3;
    uint64_t seed = 42;

    /// Sync a frozen target network for the max_a Q(e',a) term every
    /// `target_sync_every` training steps (0 = no target network; the
    /// paper's plain DQN). Stabilizes bootstrapping.
    size_t target_sync_every = 0;

    /// Dueling architecture [42, cited by the paper]: Q(e,a) =
    /// V(e) + A(e,a) - mean_a A(e,a), with separate value/advantage
    /// heads. Off by default (the paper's network is a plain MLP).
    bool dueling = false;

    /// Anytime budget shared by the IterView warm start and the RL
    /// episodes: polled between episode steps; on expiry Select()
    /// returns the best incumbent seen with MvsSolution::timed_out set.
    /// Infinite by default (historical behavior, no clock reads).
    Deadline deadline;
    /// Cooperative external cancellation (same effect as expiry).
    CancellationToken cancel;
  };

  explicit RLViewSelector(Options options) : options_(options) {}
  RLViewSelector() : RLViewSelector(Options{}) {}

  /// Validates `problem`, builds its index once, and runs the IterView
  /// warm start and the RL episodes over it.
  Result<MvsSolution> Select(const MvsProblem& problem) override;

  /// Warm-started delta re-selection for the online advisor: the
  /// IterView warm start runs its own ReselectDelta seeded at the
  /// incumbent `warm_z` over the (mutated) index, then the RL episodes
  /// restart from that state exactly as in Select(). Index-only — no
  /// dense MvsProblem is ever built, so the advisor can call this
  /// directly on its incrementally maintained index. Monotonicity: the
  /// warm start never returns below the warm point's own utility under
  /// the new index, and the episode incumbent only ever improves on its
  /// start state, so neither does the result.
  Result<MvsSolution> ReselectDelta(const MvsProblemIndex& index,
                                    const std::vector<bool>& warm_z);

  std::string name() const override { return "RLView"; }

  /// The DQN's parameters after the last Select or ReselectDelta, one
  /// vector per parameter tensor in the network's Parameters() order;
  /// empty when that call built no network. The dense loop of
  /// tests/selection_oracle.h must leave the same weights bit for bit.
  const std::vector<std::vector<double>>& trained_weights() const {
    return trained_weights_;
  }

 private:
  static constexpr size_t kFeatureDim = 8;

  /// The IterView warm start's options (Algorithm 2, line 2): n1
  /// iterations on this selector's seed, deadline and token.
  IterViewSelector::Options WarmStartOptions() const;

  /// The RL episode loop shared by Select() and ReselectDelta(): restarts
  /// every episode from `state` (the warm start's best solution) and
  /// reads the instance only through the index. Each environment step
  /// re-solves the flipped view's column and re-sums the reward sparsely
  /// in the dense summation order, and actions are scored through the
  /// no-grad inference path, so the run is bit-identical to the dense
  /// loop of tests/selection_oracle.h.
  Result<MvsSolution> EpisodesIndexed(const MvsProblemIndex& index,
                                      const MvsSolution& state);

  Options options_;
  std::vector<std::vector<double>> trained_weights_;
};

}  // namespace autoview
