#include "select/rlview.h"

#include <algorithm>
#include <cmath>

#include "ilp/problem_index.h"
#include "util/metrics.h"

namespace autoview {

namespace {

using nn::Tensor;

/// A state's row-major (|Z| x dim) action-feature matrix. Built once
/// per step and shared, never copied: the step's successor matrix is
/// the next step's state matrix, so consecutive transitions hold the
/// same buffer.
using FeatureMatrix = std::shared_ptr<const std::vector<nn::Scalar>>;

/// One replay-memory entry: the state's action-feature matrix, the
/// chosen action, the reward, and the successor state's feature matrix
/// (for the max_a Q(e', a) target).
struct Transition {
  FeatureMatrix state_actions;
  size_t action = 0;
  double reward = 0.0;
  FeatureMatrix next_actions;
  size_t num_actions = 0;
};

/// Q network: the paper's plain 16/64/16/1 MLP, optionally with the
/// dueling decomposition Q = V(e) + A(e,a) - mean_a A(e,a).
class QNet {
 public:
  QNet(size_t feature_dim, bool dueling, Rng* rng)
      : dueling_(dueling),
        advantage_({feature_dim, 16, 64, 16, 1}, rng),
        value_({feature_dim, 16, 16, 1}, rng),
        advantage_inf_(&advantage_),
        value_inf_(&value_) {}
  // The inference evaluators point at this object's own MLPs.
  QNet(const QNet&) = delete;
  QNet& operator=(const QNet&) = delete;

  /// (n x dim) action features -> (n x 1) Q values (differentiable).
  Tensor ForwardAll(const std::vector<nn::Scalar>& phis, size_t n,
                    size_t feature_dim) const {
    Tensor x = Tensor::FromData(phis, n, feature_dim);
    Tensor a = advantage_.Forward(x);  // n x 1
    if (!dueling_) return a;
    Tensor mean_a = MeanRows(a);                    // 1 x 1
    Tensor v = value_.Forward(MeanRows(x));         // 1 x 1
    return Add(Add(a, Scale(mean_a, -1.0)), v);     // broadcast over rows
  }

  /// Q(e, a) for the one action `action` (1 x 1, differentiable). The
  /// plain network is row-wise — Q(e,a) reads only row a of the
  /// features — so it tapes just that row; ForwardAll's other rows would
  /// back-propagate exact zeros. The dueling head's mean_a A(e,a)
  /// couples every row, so it needs the full pass.
  Tensor ForwardAction(const std::vector<nn::Scalar>& phis, size_t n,
                       size_t feature_dim, size_t action) const {
    if (dueling_) return SelectRow(ForwardAll(phis, n, feature_dim), action);
    const auto row = phis.begin() + action * feature_dim;
    return advantage_.Forward(Tensor::FromData(
        std::vector<nn::Scalar>(row, row + feature_dim), 1, feature_dim));
  }

  /// Q values of all n actions through the no-grad inference path: no
  /// tape nodes, no gradient buffers, reused activation storage, always
  /// the current weights. Bit-identical to ForwardAll's values —
  /// MlpInference runs MatMul's kernel with Add/ReLU's element-wise
  /// arithmetic fused in, and the dueling combination below mirrors
  /// ForwardAll's op order ((a - mean_a) + v with MeanRows' accumulation
  /// order).
  std::vector<double> QValues(const std::vector<nn::Scalar>& phis, size_t n,
                              size_t feature_dim) {
    const std::vector<nn::Scalar>& a = advantage_inf_.Forward(phis.data(), n);
    std::vector<double> q(a.begin(), a.end());
    if (!dueling_) return q;
    std::vector<nn::Scalar> mean_x(feature_dim, 0.0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < feature_dim; ++j) {
        mean_x[j] += phis[i * feature_dim + j];
      }
    }
    for (size_t j = 0; j < feature_dim; ++j) {
      mean_x[j] /= static_cast<nn::Scalar>(n);
    }
    nn::Scalar mean_a = 0.0;
    for (size_t i = 0; i < n; ++i) mean_a += q[i];
    mean_a /= static_cast<nn::Scalar>(n);
    const nn::Scalar neg_mean_a = mean_a * -1.0;
    const nn::Scalar v = value_inf_.Forward(mean_x.data(), 1)[0];
    for (size_t i = 0; i < n; ++i) q[i] = (q[i] + neg_mean_a) + v;
    return q;
  }

  std::vector<Tensor> Parameters() const {
    std::vector<Tensor> params = advantage_.Parameters();
    if (dueling_) {
      for (const auto& p : value_.Parameters()) params.push_back(p);
    }
    return params;
  }

  void CopyFrom(const QNet& other) {
    advantage_.CopyFrom(other.advantage_);
    value_.CopyFrom(other.value_);
  }

 private:
  bool dueling_;
  nn::Mlp advantage_;
  nn::Mlp value_;
  nn::MlpInference advantage_inf_;
  nn::MlpInference value_inf_;
};

}  // namespace

IterViewSelector::Options RLViewSelector::WarmStartOptions() const {
  // The warm start inherits the deadline, so even a budget too small
  // for any RL episode still yields a feasible (possibly all-zeros)
  // incumbent.
  IterViewSelector::Options warm_options;
  warm_options.iterations = options_.init_iterations;
  warm_options.seed = options_.seed;
  warm_options.deadline = options_.deadline;
  warm_options.cancel = options_.cancel;
  return warm_options;
}

Result<MvsSolution> RLViewSelector::Select(const MvsProblem& problem) {
  AV_RETURN_NOT_OK(problem.Validate());
  trace_.clear();
  trained_weights_.clear();
  if (problem.num_views() == 0) {
    MvsSolution empty;
    empty.y.assign(problem.num_queries(), {});
    return empty;
  }
  const MvsProblemIndex index(problem);
  // Warm start: Z0, Y0 <- IterView (Algorithm 2, line 2).
  IterViewSelector warm(WarmStartOptions());
  AV_ASSIGN_OR_RETURN(MvsSolution state, warm.SelectIndexed(index));
  for (double u : warm.utility_trace()) trace_.push_back(u);
  return EpisodesIndexed(index, state);
}

Result<MvsSolution> RLViewSelector::ReselectDelta(
    const MvsProblemIndex& index, const std::vector<bool>& warm_z) {
  if (warm_z.size() != index.num_views()) {
    return Status::InvalidArgument("warm_z size does not match index views");
  }
  trace_.clear();
  trained_weights_.clear();
  if (index.num_views() == 0) {
    MvsSolution empty;
    empty.y.assign(index.num_queries(), {});
    return empty;
  }
  // Warm start: IterView's own delta re-selection seeded at the
  // incumbent (Algorithm 2, line 2, with the random initialization
  // replaced by warm_z). Its result is never below the warm point's
  // utility under this index, and the episode incumbent below only
  // improves on its start state, so the whole re-selection is monotone
  // with respect to the incumbent.
  IterViewSelector warm(WarmStartOptions());
  AV_ASSIGN_OR_RETURN(MvsSolution state, warm.ReselectDelta(index, warm_z));
  for (double u : warm.utility_trace()) trace_.push_back(u);
  return EpisodesIndexed(index, state);
}

Result<MvsSolution> RLViewSelector::EpisodesIndexed(
    const MvsProblemIndex& index, const MvsSolution& state) {
  const size_t nz = index.num_views();
  const std::vector<double>& overhead = index.Overhead();
  YOptSolver yopt(&index);
  Rng rng(options_.seed);

  MvsSolution best = state;
  bool timed_out = state.timed_out;
  best.timed_out = false;  // set again below if the run was cut short

  // Per-problem invariants, served by the index.
  std::vector<double> max_benefit(nz), overlap_degree(nz);
  const double o_max = index.TotalOverhead();
  const double b_max_total = index.TotalMaxBenefit();
  for (size_t j = 0; j < nz; ++j) {
    max_benefit[j] = index.MaxBenefit(j);
    overlap_degree[j] = static_cast<double>(index.Overlapping(j).size()) /
                        static_cast<double>(nz);
  }
  const double utility_scale = std::max(b_max_total, 1e-12);

  // DQN mu(e|theta) (§V-B2) and the optional frozen target network.
  QNet dqn(kFeatureDim, options_.dueling, &rng);
  QNet target_net(kFeatureDim, options_.dueling, &rng);
  target_net.CopyFrom(dqn);
  const bool use_target = options_.target_sync_every > 0;
  size_t train_steps = 0;
  nn::Adam::Options adam_opts;
  adam_opts.lr = options_.learning_rate;
  nn::Adam adam(dqn.Parameters(), adam_opts);

  std::deque<Transition> memory;
  const size_t max_steps =
      options_.max_steps_per_episode ? options_.max_steps_per_episode : nz;

  // Row-major (nz x kFeatureDim) feature matrix for all actions.
  auto features_of = [&](const std::vector<bool>& z,
                         const std::vector<double>& b_cur, double utility) {
    const double utility_norm = utility / utility_scale;
    double o_cur = 0.0, b_cur_total = 0.0;
    for (size_t k = 0; k < nz; ++k) {
      if (z[k]) o_cur += overhead[k];
      b_cur_total += b_cur[k];
    }
    auto phis = std::make_shared<std::vector<nn::Scalar>>(nz * kFeatureDim);
    for (size_t j = 0; j < nz; ++j) {
      nn::Scalar* row = &(*phis)[j * kFeatureDim];
      row[0] = z[j] ? 1.0 : 0.0;
      row[1] = overhead[j] / std::max(o_max, 1e-12);
      row[2] = max_benefit[j] / std::max(b_max_total, 1e-12);
      row[3] = b_cur[j] / std::max(b_cur_total, 1e-12);
      row[4] = overlap_degree[j];
      row[5] = utility_norm;
      row[6] = o_cur / std::max(o_max, 1e-12);
      row[7] = 1.0;
    }
    return FeatureMatrix(std::move(phis));
  };

  // The episode start state is fixed, so its utility and per-view
  // benefits are computed once and copied at each restart.
  const double state_utility = index.EvaluateUtilitySparse(state.z, state.y);
  std::vector<double> state_b_cur(nz, 0.0);
  for (size_t j = 0; j < nz; ++j) {
    state_b_cur[j] = index.CurrentBenefit(j, state.y);
  }

  std::vector<bool> view_dirty(nz, false);
  std::vector<size_t> dirty_views;

  for (size_t episode = 0; episode < options_.episodes && !timed_out;
       ++episode) {
    // Linearly decaying exploration: explore early, exploit late.
    const double epsilon =
        options_.epsilon *
        (1.0 - static_cast<double>(episode) /
                   static_cast<double>(std::max<size_t>(1, options_.episodes)));
    // Every episode restarts from the warm-start state (line 6).
    std::vector<bool> z = state.z;
    std::vector<std::vector<bool>> y = state.y;
    double utility = state_utility;
    std::vector<double> b_cur = state_b_cur;
    FeatureMatrix phis = features_of(z, b_cur, utility);

    size_t t = 0;
    double reward = 0.0;
    do {
      // Anytime behavior: keep the incumbent, stop the episode. The
      // infinite default never reads the clock (bit-identity).
      if (StopRequested(options_.deadline, options_.cancel)) {
        timed_out = true;
        break;
      }
      // Action selection: argmax_j Q(e_t)[j], epsilon-greedy.
      size_t action;
      if (rng.Bernoulli(epsilon)) {
        action = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(nz) - 1));
      } else {
        std::vector<double> q = dqn.QValues(*phis, nz, kFeatureDim);
        action = static_cast<size_t>(
            std::max_element(q.begin(), q.end()) - q.begin());
      }

      // Environment step: flip z_a; the affected queries — those with
      // benefit[i][action] != 0, i.e. the inverted-index column — are
      // re-solved; views whose usage changed get b_cur re-derived.
      z[action] = !z[action];
      dirty_views.clear();
      for (const MvsProblemIndex::Entry& e : index.Column(action)) {
        std::vector<bool> solved_row = yopt.SolveQuery(e.index, z);
        for (const MvsProblemIndex::Entry& re : index.Row(e.index)) {
          if (y[e.index][re.index] != solved_row[re.index] &&
              !view_dirty[re.index]) {
            view_dirty[re.index] = true;
            dirty_views.push_back(re.index);
          }
        }
        y[e.index] = std::move(solved_row);
      }
      GlobalSelection().RecordQueriesSolved(index.Column(action).size());
      const double next_utility = index.EvaluateUtilitySparse(z, y);
      GlobalSelection().RecordUtilityCells(index.NumPositive());
      reward = next_utility - utility;

      for (size_t j : dirty_views) {
        b_cur[j] = index.CurrentBenefit(j, y);
        view_dirty[j] = false;
      }
      FeatureMatrix next_phis = features_of(z, b_cur, next_utility);

      Transition transition;
      transition.state_actions = phis;
      transition.action = action;
      transition.reward = reward;
      transition.next_actions = next_phis;
      transition.num_actions = nz;
      memory.push_back(std::move(transition));
      if (memory.size() > options_.memory_capacity) memory.pop_front();

      utility = next_utility;
      phis = std::move(next_phis);
      trace_.push_back(utility);
      if (utility > best.utility) {
        best.z = z;
        best.y = y;
        best.utility = utility;
      }

      // Fine-tune the DQN once the replay memory is warm (line 16).
      // Bootstrap targets need no gradients, so they use the fast
      // scorer. The prediction pass tapes one row per sample (see
      // QNet::ForwardAction). Each sample stays its own subgraph under
      // ConcatRows, so Backward accumulates the samples in the order of
      // a full ForwardAll pass and the weights stay bit-identical;
      // batching the samples into one matmul would reorder those float
      // sums.
      if (memory.size() >= options_.min_memory) {
        adam.ZeroGrad();
        std::vector<Tensor> preds, targets;
        for (size_t b = 0; b < options_.batch_size; ++b) {
          const Transition& tr = memory[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(memory.size()) - 1))];
          QNet& bootstrap = use_target ? target_net : dqn;
          std::vector<double> next_q = bootstrap.QValues(
              *tr.next_actions, tr.num_actions, kFeatureDim);
          const double target =
              tr.reward +
              options_.gamma * *std::max_element(next_q.begin(), next_q.end());
          preds.push_back(dqn.ForwardAction(*tr.state_actions, tr.num_actions,
                                            kFeatureDim, tr.action));
          targets.push_back(Tensor::Full(1, 1, target));
        }
        MseLoss(nn::ConcatRows(preds), nn::ConcatRows(targets)).Backward();
        adam.Step();
        ++train_steps;
        if (use_target && train_steps % options_.target_sync_every == 0) {
          target_net.CopyFrom(dqn);
        }
      }
      ++t;
      // Paper termination: continue while t < |Z| or the last reward was
      // positive; a hard cap bounds pathological positive-reward chains.
    } while ((t < max_steps || reward > 0.0) && t < 4 * max_steps);
  }
  best.timed_out = timed_out;
  // The warm start already recorded its own timeout; only count the
  // episode phase here to keep one user-visible Select() == one record.
  if (timed_out && !state.timed_out) GlobalRobustness().RecordTimeout();
  for (const Tensor& param : dqn.Parameters()) {
    trained_weights_.push_back(param.data());
  }
  return best;
}

}  // namespace autoview
