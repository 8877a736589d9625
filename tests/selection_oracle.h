// Test oracle for view selection (§V): IterView, RLView, Y-Opt and the
// exact OPT search written out densely over MvsProblem's |Q| x |Z|
// arrays, with every per-iteration quantity recomputed from scratch.
// The library reads an instance only through MvsProblemIndex and
// re-derives only what a flip touched; it must match these loops bit
// for bit (flip sequence, utility trace, DQN weights, solution), which
// problem_index_test, deadline_test and ilp_select_test assert.
//
// No gtest here: bench/bench_selection_scale.cc times these loops as
// its dense baseline arm.

#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "ilp/branch_and_bound.h"
#include "ilp/compact_problem.h"
#include "ilp/problem.h"
#include "nn/modules.h"
#include "nn/optimizer.h"
#include "select/iterview.h"
#include "select/rlview.h"
#include "util/metrics.h"
#include "util/random.h"

namespace autoview {
namespace testing {

/// Compresses a dense problem into the sharded CSR form: every nonzero
/// cell, ascending view id per row.
inline CompactMvsProblem CompactFromDense(const MvsProblem& problem,
                                          size_t shard_budget_bytes = 1 << 20) {
  CompactMvsProblem compact;
  compact.rows = CompressedRowStore(shard_budget_bytes);
  compact.overhead = problem.overhead;
  compact.frequency = problem.frequency;
  const size_t nz = problem.num_views();
  compact.overlap_adjacency.resize(nz);
  for (size_t j = 0; j < nz; ++j) {
    for (size_t k = 0; k < nz; ++k) {
      if (k != j && problem.overlap[j][k]) {
        compact.overlap_adjacency[j].push_back(static_cast<uint32_t>(k));
      }
    }
  }
  std::vector<CompressedRowStore::Entry> entries;
  for (const auto& row : problem.benefit) {
    entries.clear();
    for (size_t j = 0; j < row.size(); ++j) {
      if (row[j] != 0.0) {
        entries.push_back(CompressedRowStore::Entry{j, row[j]});
      }
    }
    compact.rows.AppendRow(entries);
  }
  return compact;
}

/// Dense Y-Opt: scans all |Z| views of the query's dense row, sorts the
/// z-selected positive ones by descending benefit, and runs the exact
/// branch-and-bound (greedy above 26 views).
class DenseYOpt {
 public:
  explicit DenseYOpt(const MvsProblem* problem) : problem_(problem) {}

  std::vector<bool> SolveQuery(size_t query_index,
                               const std::vector<bool>& z) const {
    const auto& benefits = problem_->benefit[query_index];
    std::vector<size_t> views;
    std::vector<double> weights;
    for (size_t j = 0; j < z.size(); ++j) {
      if (z[j] && benefits[j] > 0) {
        views.push_back(j);
        weights.push_back(benefits[j]);
      }
    }
    std::vector<bool> row(z.size(), false);
    if (views.empty()) return row;
    std::vector<size_t> order(views.size());
    for (size_t p = 0; p < order.size(); ++p) order[p] = p;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return weights[a] > weights[b]; });
    std::vector<size_t> sorted_views(views.size());
    std::vector<double> sorted_weights(views.size());
    for (size_t p = 0; p < order.size(); ++p) {
      sorted_views[p] = views[order[p]];
      sorted_weights[p] = weights[order[p]];
    }
    views.swap(sorted_views);
    weights.swap(sorted_weights);

    constexpr size_t kExactCutoff = 26;
    std::vector<bool> taken(views.size(), false);
    std::vector<bool> best_taken(views.size(), false);
    if (views.size() <= kExactCutoff) {
      double best = 0.0;
      Search(views, weights, 0, 0.0, &taken, &best, &best_taken);
    } else {
      for (size_t p = 0; p < views.size(); ++p) {
        bool compatible = true;
        for (size_t q = 0; q < p && compatible; ++q) {
          if (best_taken[q] && problem_->overlap[views[q]][views[p]]) {
            compatible = false;
          }
        }
        best_taken[p] = compatible;
      }
    }
    for (size_t p = 0; p < views.size(); ++p) {
      if (best_taken[p]) row[views[p]] = true;
    }
    return row;
  }

  std::vector<std::vector<bool>> SolveAll(const std::vector<bool>& z) const {
    std::vector<std::vector<bool>> y;
    for (size_t i = 0; i < problem_->num_queries(); ++i) {
      y.push_back(SolveQuery(i, z));
    }
    return y;
  }

  double UtilityOf(const std::vector<bool>& z) const {
    return EvaluateUtility(*problem_, z, SolveAll(z));
  }

 private:
  void Search(const std::vector<size_t>& views,
              const std::vector<double>& weights, size_t pos, double current,
              std::vector<bool>* taken, double* best,
              std::vector<bool>* best_taken) const {
    if (pos == views.size()) {
      if (current > *best) {
        *best = current;
        *best_taken = *taken;
      }
      return;
    }
    double bound = current;
    for (size_t p = pos; p < views.size(); ++p) bound += weights[p];
    if (bound <= *best) return;
    bool compatible = true;
    for (size_t p = 0; p < pos && compatible; ++p) {
      if ((*taken)[p] && problem_->overlap[views[p]][views[pos]]) {
        compatible = false;
      }
    }
    if (compatible) {
      (*taken)[pos] = true;
      Search(views, weights, pos + 1, current + weights[pos], taken, best,
             best_taken);
      (*taken)[pos] = false;
    }
    Search(views, weights, pos + 1, current, taken, best, best_taken);
  }

  const MvsProblem* problem_;
};

/// Top-k over dense Y-Opt: the first k views of TopkSelector's ranking.
inline MvsSolution OracleTopk(const MvsProblem& problem, TopkStrategy strategy,
                              size_t k) {
  const std::vector<size_t> order = TopkSelector(strategy, k).Ranking(problem);
  MvsSolution solution;
  solution.z.assign(problem.num_views(), false);
  for (size_t p = 0; p < k && p < order.size(); ++p) {
    solution.z[order[p]] = true;
  }
  solution.y = DenseYOpt(&problem).SolveAll(solution.z);
  solution.utility = EvaluateUtility(problem, solution.z, solution.y);
  return solution;
}

/// BranchAndBoundSolver::Solve over dense Y-Opt: same variable order,
/// bounds, budgets and greedy seed. `nodes` receives the nodes expanded.
inline Result<MvsSolution> OracleBranchAndBound(
    const MvsProblem& problem, const BranchAndBoundSolver::Options& options,
    uint64_t* nodes) {
  AV_RETURN_NOT_OK(problem.Validate());
  const DenseYOpt yopt(&problem);
  const size_t nz = problem.num_views();
  const size_t nq = problem.num_queries();
  std::vector<double> max_benefit(nz);
  double root_bound = 0.0;
  for (size_t j = 0; j < nz; ++j) {
    max_benefit[j] = problem.MaxBenefit(j);
    root_bound += std::max(0.0, max_benefit[j] - problem.overhead[j]);
  }
  std::vector<size_t> order(nz);
  for (size_t j = 0; j < nz; ++j) order[j] = j;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return max_benefit[a] - problem.overhead[a] >
           max_benefit[b] - problem.overhead[b];
  });
  std::vector<bool> z(nz, false);
  std::vector<bool> best_z = z;
  double best_utility = 0.0;
  std::vector<bool> greedy(nz, false);
  for (size_t j = 0; j < nz; ++j) {
    greedy[j] = max_benefit[j] > problem.overhead[j];
  }
  const double greedy_utility = yopt.UtilityOf(greedy);
  if (greedy_utility > best_utility) {
    best_utility = greedy_utility;
    best_z = greedy;
  }

  uint64_t expanded = 0, solves = 0;
  bool exhausted = false;
  auto tight_bound = [&](size_t pos) {
    std::vector<bool> optimistic = z;
    for (size_t p = pos; p < nz; ++p) optimistic[order[p]] = true;
    double bound = 0.0;
    for (size_t i = 0; i < nq; ++i) {
      std::vector<bool> row = yopt.SolveQuery(i, optimistic);
      for (size_t j = 0; j < row.size(); ++j) {
        if (row[j]) bound += problem.benefit[i][j];
      }
    }
    for (size_t p = 0; p < pos; ++p) {
      if (z[order[p]]) bound -= problem.overhead[order[p]];
    }
    return bound;
  };
  auto branch = [&](auto&& self, size_t pos, double bound) -> void {
    if (exhausted) return;
    if (++expanded > options.max_nodes || solves > options.max_yopt_solves) {
      exhausted = true;
      return;
    }
    if (bound <= best_utility) return;
    if (pos > 0 && pos <= options.tight_bound_depth) {
      solves += nq;
      if (tight_bound(pos) <= best_utility) return;
    }
    if (pos == nz) {
      solves += nq;
      const double utility = yopt.UtilityOf(z);
      if (utility > best_utility) {
        best_utility = utility;
        best_z = z;
      }
      return;
    }
    const size_t j = order[pos];
    const double net = max_benefit[j] - problem.overhead[j];
    const double optimistic = std::max(0.0, net);
    z[j] = true;
    self(self, pos + 1, bound - optimistic + net);
    z[j] = false;
    self(self, pos + 1, bound - optimistic);
  };
  branch(branch, 0, root_bound);
  *nodes = expanded;
  if (exhausted) return Status::ResourceExhausted("node budget exceeded");
  MvsSolution solution;
  solution.z = best_z;
  solution.y = yopt.SolveAll(solution.z);
  solution.utility = EvaluateUtility(problem, solution.z, solution.y);
  return solution;
}

namespace oracle_internal {

/// Workload-level aggregates of Eq. 3, recomputed densely.
struct Aggregates {
  double o_max = 0.0;
  double o_cur = 0.0;
  double b_cur_total = 0.0;
  double b_max_total = 0.0;
  std::vector<double> max_benefit;
};

inline Aggregates ComputeAggregates(const MvsProblem& problem,
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

inline double FlipProbability(const MvsProblem& problem, const Aggregates& agg,
                              const std::vector<double>& b_cur, size_t j,
                              const std::vector<bool>& z) {
  const double o_j = std::max(problem.overhead[j], 1e-12);
  double p_overhead, p_benefit;
  if (z[j]) {
    p_overhead = agg.o_cur > 0 ? o_j / agg.o_cur : 1.0;
    p_benefit = agg.b_cur_total > 0 ? 1.0 - b_cur[j] / agg.b_cur_total : 1.0;
  } else {
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

/// Per-view current benefit under y, by a full dense scan.
inline std::vector<double> CurrentBenefits(
    const MvsProblem& problem, const std::vector<std::vector<bool>>& y) {
  std::vector<double> b_cur(problem.num_views(), 0.0);
  for (size_t i = 0; i < problem.num_queries(); ++i) {
    for (size_t j = 0; j < problem.num_views(); ++j) {
      if (y[i][j] && problem.benefit[i][j] > 0) {
        b_cur[j] += problem.benefit[i][j];
      }
    }
  }
  return b_cur;
}

}  // namespace oracle_internal

/// IterView (§V-A2) as one dense trial on the Rng stream options.seed:
/// random Z and Y, then per iteration a full benefit rescan, a Z-Opt
/// pass, Y-Opt over every query and a dense utility evaluation. Charges
/// GlobalSelection() |Q| x |Z| cells per evaluation and |Q| solves per
/// pass. Same anytime floor and timeout record as IterViewSelector.
class OracleIterView : public ViewSelector {
 public:
  explicit OracleIterView(IterViewSelector::Options options)
      : options_(options) {}

  Result<MvsSolution> Select(const MvsProblem& problem) override {
    AV_RETURN_NOT_OK(problem.Validate());
    trace_.clear();
    Rng rng(options_.seed);
    const size_t nz = problem.num_views();
    const size_t nq = problem.num_queries();
    const DenseYOpt yopt(&problem);

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

    MvsSolution best;
    best.z = z;
    best.y = y;
    best.utility = EvaluateUtility(problem, z, y);
    trace_.push_back(best.utility);
    GlobalSelection().RecordUtilityCells(static_cast<uint64_t>(nq) * nz);

    for (size_t iter = 0; iter < options_.iterations; ++iter) {
      if (StopRequested(options_.deadline, options_.cancel)) {
        best.timed_out = true;
        break;
      }
      const std::vector<double> b_cur =
          oracle_internal::CurrentBenefits(problem, y);
      const double tau = rng.Uniform01();
      const bool frozen = iter >= options_.freeze_selected_after;
      const oracle_internal::Aggregates agg =
          oracle_internal::ComputeAggregates(problem, b_cur, z);
      for (size_t j = 0; j < nz; ++j) {
        if (frozen && z[j]) continue;
        if (oracle_internal::FlipProbability(problem, agg, b_cur, j, z) >=
            tau) {
          z[j] = !z[j];
        }
      }
      y = yopt.SolveAll(z);
      GlobalSelection().RecordQueriesSolved(nq);
      const double utility = EvaluateUtility(problem, z, y);
      GlobalSelection().RecordUtilityCells(static_cast<uint64_t>(nq) * nz);
      trace_.push_back(utility);
      if (utility > best.utility) {
        best.z = z;
        best.y = y;
        best.utility = utility;
      }
    }
    if (best.timed_out) {
      GlobalRobustness().RecordTimeout();
      if (best.utility < 0.0) {
        best.z.assign(nz, false);
        best.y.assign(nq, std::vector<bool>(nz, false));
        best.utility = 0.0;
        trace_.push_back(best.utility);
      }
    }
    return best;
  }

  std::string name() const override { return "IterView (dense oracle)"; }

 private:
  IterViewSelector::Options options_;
};

/// RLView (Algorithm 2) over the dense problem: an OracleIterView warm
/// start, then episodes whose environment step re-solves every query
/// with a nonzero benefit for the flipped view, whose reward is a dense
/// utility evaluation, and whose Q-network runs every forward pass on
/// the autograd tape (action scoring, bootstrap and prediction alike,
/// the prediction over all |Z| action rows).
class OracleRLView : public ViewSelector {
 public:
  explicit OracleRLView(RLViewSelector::Options options) : options_(options) {}

  Result<MvsSolution> Select(const MvsProblem& problem) override {
    AV_RETURN_NOT_OK(problem.Validate());
    trace_.clear();
    trained_weights_.clear();
    const size_t nz = problem.num_views();
    const size_t nq = problem.num_queries();
    if (nz == 0) {
      MvsSolution empty;
      empty.y.assign(nq, {});
      return empty;
    }
    const DenseYOpt yopt(&problem);
    Rng rng(options_.seed);

    IterViewSelector::Options warm_options;
    warm_options.iterations = options_.init_iterations;
    warm_options.seed = options_.seed;
    warm_options.deadline = options_.deadline;
    warm_options.cancel = options_.cancel;
    OracleIterView warm(warm_options);
    AV_ASSIGN_OR_RETURN(MvsSolution state, warm.Select(problem));
    for (double u : warm.utility_trace()) trace_.push_back(u);
    MvsSolution best = state;
    bool timed_out = state.timed_out;
    best.timed_out = false;

    std::vector<double> max_benefit(nz), overlap_degree(nz);
    double o_max = 0.0, b_max_total = 0.0;
    for (size_t j = 0; j < nz; ++j) {
      max_benefit[j] = problem.MaxBenefit(j);
      b_max_total += max_benefit[j];
      o_max += problem.overhead[j];
      size_t degree = 0;
      for (size_t k = 0; k < nz; ++k) degree += problem.overlap[j][k];
      overlap_degree[j] =
          static_cast<double>(degree) / static_cast<double>(nz);
    }
    const double utility_scale = std::max(b_max_total, 1e-12);

    QNet dqn(options_.dueling, &rng);
    QNet target_net(options_.dueling, &rng);
    target_net.CopyFrom(dqn);
    const bool use_target = options_.target_sync_every > 0;
    size_t train_steps = 0;
    nn::Adam::Options adam_opts;
    adam_opts.lr = options_.learning_rate;
    nn::Adam adam(dqn.Parameters(), adam_opts);

    std::deque<Transition> memory;
    const size_t max_steps =
        options_.max_steps_per_episode ? options_.max_steps_per_episode : nz;

    auto features_of = [&](const std::vector<bool>& z,
                           const std::vector<double>& b_cur, double utility) {
      const double utility_norm = utility / utility_scale;
      double o_cur = 0.0, b_cur_total = 0.0;
      for (size_t k = 0; k < nz; ++k) {
        if (z[k]) o_cur += problem.overhead[k];
        b_cur_total += b_cur[k];
      }
      auto phis = std::make_shared<std::vector<nn::Scalar>>(nz * kFeatureDim);
      for (size_t j = 0; j < nz; ++j) {
        nn::Scalar* row = &(*phis)[j * kFeatureDim];
        row[0] = z[j] ? 1.0 : 0.0;
        row[1] = problem.overhead[j] / std::max(o_max, 1e-12);
        row[2] = max_benefit[j] / std::max(b_max_total, 1e-12);
        row[3] = b_cur[j] / std::max(b_cur_total, 1e-12);
        row[4] = overlap_degree[j];
        row[5] = utility_norm;
        row[6] = o_cur / std::max(o_max, 1e-12);
        row[7] = 1.0;
      }
      return FeatureMatrix(std::move(phis));
    };

    for (size_t episode = 0; episode < options_.episodes && !timed_out;
         ++episode) {
      const double epsilon =
          options_.epsilon *
          (1.0 - static_cast<double>(episode) /
                     static_cast<double>(
                         std::max<size_t>(1, options_.episodes)));
      std::vector<bool> z = state.z;
      std::vector<std::vector<bool>> y = state.y;
      double utility = EvaluateUtility(problem, z, y);
      FeatureMatrix phis = features_of(
          z, oracle_internal::CurrentBenefits(problem, y), utility);

      size_t t = 0;
      double reward = 0.0;
      do {
        if (StopRequested(options_.deadline, options_.cancel)) {
          timed_out = true;
          break;
        }
        size_t action;
        if (rng.Bernoulli(epsilon)) {
          action = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(nz) - 1));
        } else {
          std::vector<double> q = dqn.Values(*phis, nz);
          action = static_cast<size_t>(
              std::max_element(q.begin(), q.end()) - q.begin());
        }

        z[action] = !z[action];
        size_t solved = 0;
        for (size_t i = 0; i < nq; ++i) {
          if (problem.benefit[i][action] == 0.0) continue;
          y[i] = yopt.SolveQuery(i, z);
          ++solved;
        }
        GlobalSelection().RecordQueriesSolved(solved);
        const double next_utility = EvaluateUtility(problem, z, y);
        GlobalSelection().RecordUtilityCells(static_cast<uint64_t>(nq) * nz);
        reward = next_utility - utility;
        FeatureMatrix next_phis = features_of(
            z, oracle_internal::CurrentBenefits(problem, y), next_utility);

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

        if (memory.size() >= options_.min_memory) {
          adam.ZeroGrad();
          std::vector<nn::Tensor> preds, targets;
          for (size_t b = 0; b < options_.batch_size; ++b) {
            const Transition& tr = memory[static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(memory.size()) - 1))];
            const QNet& bootstrap = use_target ? target_net : dqn;
            std::vector<double> next_q =
                bootstrap.Values(*tr.next_actions, tr.num_actions);
            const double target =
                tr.reward + options_.gamma *
                                *std::max_element(next_q.begin(), next_q.end());
            nn::Tensor q_all =
                dqn.ForwardAll(*tr.state_actions, tr.num_actions);
            preds.push_back(nn::SelectRow(q_all, tr.action));
            targets.push_back(nn::Tensor::Full(1, 1, target));
          }
          nn::MseLoss(nn::ConcatRows(preds), nn::ConcatRows(targets))
              .Backward();
          adam.Step();
          ++train_steps;
          if (use_target && train_steps % options_.target_sync_every == 0) {
            target_net.CopyFrom(dqn);
          }
        }
        ++t;
      } while ((t < max_steps || reward > 0.0) && t < 4 * max_steps);
    }
    best.timed_out = timed_out;
    if (timed_out && !state.timed_out) GlobalRobustness().RecordTimeout();
    for (const nn::Tensor& param : dqn.Parameters()) {
      trained_weights_.push_back(param.data());
    }
    return best;
  }

  std::string name() const override { return "RLView (dense oracle)"; }

  /// The DQN's parameters after the last Select, in Parameters() order.
  const std::vector<std::vector<double>>& trained_weights() const {
    return trained_weights_;
  }

 private:
  static constexpr size_t kFeatureDim = 8;
  using FeatureMatrix = std::shared_ptr<const std::vector<nn::Scalar>>;

  struct Transition {
    FeatureMatrix state_actions;
    size_t action = 0;
    double reward = 0.0;
    FeatureMatrix next_actions;
    size_t num_actions = 0;
  };

  /// The paper's 16/64/16/1 Q-network, optionally dueling
  /// (Q = V(e) + A(e,a) - mean_a A(e,a)), every pass on the tape.
  class QNet {
   public:
    QNet(bool dueling, Rng* rng)
        : dueling_(dueling),
          advantage_({kFeatureDim, 16, 64, 16, 1}, rng),
          value_({kFeatureDim, 16, 16, 1}, rng) {}

    nn::Tensor ForwardAll(const std::vector<nn::Scalar>& phis,
                          size_t n) const {
      nn::Tensor x = nn::Tensor::FromData(phis, n, kFeatureDim);
      nn::Tensor a = advantage_.Forward(x);
      if (!dueling_) return a;
      nn::Tensor mean_a = nn::MeanRows(a);
      nn::Tensor v = value_.Forward(nn::MeanRows(x));
      return nn::Add(nn::Add(a, nn::Scale(mean_a, -1.0)), v);
    }

    std::vector<double> Values(const std::vector<nn::Scalar>& phis,
                               size_t n) const {
      nn::Tensor q = ForwardAll(phis, n);
      return std::vector<double>(q.data().begin(), q.data().end());
    }

    std::vector<nn::Tensor> Parameters() const {
      std::vector<nn::Tensor> params = advantage_.Parameters();
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
  };

  RLViewSelector::Options options_;
  std::vector<std::vector<double>> trained_weights_;
};

}  // namespace testing
}  // namespace autoview
