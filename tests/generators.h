// Shared random-instance generators for the property/determinism test
// suites. Everything here is seed-deterministic so suites can assert
// bit-identical results across configurations (e.g. thread counts).

#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "ilp/problem.h"
#include "plan/plan.h"
#include "util/random.h"

namespace autoview {
namespace testing {

/// A random MVS instance: dense-ish benefit matrix, uniform overheads,
/// symmetric sparse overlap flags.
inline MvsProblem RandomProblem(size_t nq, size_t nz, uint64_t seed) {
  Rng rng(seed);
  MvsProblem p;
  p.overhead.resize(nz);
  p.frequency.assign(nz, 0);
  for (auto& o : p.overhead) o = rng.Uniform(0.5, 5.0);
  p.benefit.assign(nq, std::vector<double>(nz, 0.0));
  for (auto& row : p.benefit) {
    for (size_t j = 0; j < nz; ++j) {
      if (rng.Bernoulli(0.35)) {
        row[j] = rng.Uniform(0.1, 3.0);
        ++p.frequency[j];
      }
    }
  }
  p.overlap.assign(nz, std::vector<bool>(nz, false));
  for (size_t j = 0; j < nz; ++j) {
    for (size_t k = j + 1; k < nz; ++k) {
      if (rng.Bernoulli(0.2)) p.overlap[j][k] = p.overlap[k][j] = true;
    }
  }
  return p;
}

/// A sparse MVS instance (default ~5% nonzero benefits, the regime the
/// incremental selection engine targets). `negative_fraction` of the
/// nonzero cells get a negative benefit, exercising the nonzero-but-
/// not-positive distinction between the inverted index (affected-query
/// tests) and the CSR rows (solver/utility support).
inline MvsProblem RandomSparseProblem(size_t nq, size_t nz, uint64_t seed,
                                      double density = 0.05,
                                      double negative_fraction = 0.0) {
  Rng rng(seed);
  MvsProblem p;
  p.overhead.resize(nz);
  p.frequency.assign(nz, 0);
  for (auto& o : p.overhead) o = rng.Uniform(0.5, 5.0);
  p.benefit.assign(nq, std::vector<double>(nz, 0.0));
  for (auto& row : p.benefit) {
    for (size_t j = 0; j < nz; ++j) {
      if (!rng.Bernoulli(density)) continue;
      const double magnitude = rng.Uniform(0.1, 3.0);
      const bool negative =
          negative_fraction > 0.0 && rng.Bernoulli(negative_fraction);
      row[j] = negative ? -magnitude : magnitude;
      if (!negative) ++p.frequency[j];
    }
  }
  p.overlap.assign(nz, std::vector<bool>(nz, false));
  for (size_t j = 0; j < nz; ++j) {
    for (size_t k = j + 1; k < nz; ++k) {
      if (rng.Bernoulli(0.05)) p.overlap[j][k] = p.overlap[k][j] = true;
    }
  }
  return p;
}

/// A random plan over `tables` (registered in `catalog`), at most `depth`
/// operators from root to leaf. Every PlanOp kind can appear, and about a
/// third of the joins put one subtree on both sides, so Subtrees() of the
/// result repeats canonical keys.
inline PlanNodePtr RandomPlan(const Catalog& catalog,
                              const std::vector<std::string>& tables,
                              size_t depth, Rng& rng) {
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  if (depth <= 1 || rng.Bernoulli(0.15)) {
    return PlanNode::MakeScan(catalog, tables[pick(tables.size())]).value();
  }
  const PlanNodePtr child = RandomPlan(catalog, tables, depth - 1, rng);
  const std::vector<OutputColumn>& out = child->output();
  const size_t col = pick(out.size());
  const ExprPtr column = Expr::Column(col, out[col].name, out[col].type);
  switch (rng.UniformInt(0, 6)) {
    case 0: {
      const int64_t n = rng.UniformInt(0, 9);
      Value literal(n);
      if (out[col].type == ColumnType::kString) {
        std::string text = "v";
        text += std::to_string(n);
        literal = Value(std::move(text));
      } else if (out[col].type == ColumnType::kDouble) {
        literal = Value(static_cast<double>(n));
      }
      ExprPtr predicate = Expr::Compare(
          rng.Bernoulli(0.5) ? CompareOp::kEq : CompareOp::kLt,
          rng.Bernoulli(0.5) ? column : Expr::Literal(literal),
          rng.Bernoulli(0.5) ? Expr::Literal(literal) : column);
      return PlanNode::MakeFilter(child, std::move(predicate)).value();
    }
    case 1: {
      std::vector<ProjectItem> items;
      for (size_t i = 0; i < out.size(); ++i) {
        if (i == col || rng.Bernoulli(0.5)) {
          items.push_back(ProjectItem{
              Expr::Column(i, out[i].name, out[i].type), out[i].name});
        }
      }
      if (rng.Bernoulli(0.5)) std::reverse(items.begin(), items.end());
      return PlanNode::MakeProject(child, std::move(items)).value();
    }
    case 2: {
      const PlanNodePtr right = rng.Bernoulli(0.35)
                                    ? child
                                    : RandomPlan(catalog, tables, depth - 1, rng);
      const size_t rcol = pick(right->output().size());
      const OutputColumn& r = right->output()[rcol];
      ExprPtr condition = Expr::Compare(
          CompareOp::kEq, column,
          Expr::Column(out.size() + rcol, r.name, r.type));
      return PlanNode::MakeJoin(child, right, std::move(condition)).value();
    }
    case 3: {
      std::vector<AggItem> aggs;
      aggs.push_back(AggItem{AggKind::kCountStar, std::nullopt, "*", "cnt"});
      return PlanNode::MakeAggregate(child, {col}, std::move(aggs)).value();
    }
    case 4:
      return PlanNode::MakeSort(child, {SortKey{col, rng.Bernoulli(0.5)}})
          .value();
    case 5:
      return PlanNode::MakeLimit(child, rng.UniformInt(1, 100)).value();
    default:
      return PlanNode::MakeDistinct(child).value();
  }
}

}  // namespace testing
}  // namespace autoview
