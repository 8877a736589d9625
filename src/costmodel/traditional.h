#pragma once

#include <optional>
#include <string>
#include <vector>

#include "costmodel/estimator.h"
#include "engine/cost.h"
#include "plan/plan.h"

namespace autoview {

/// \brief Textbook statistics-based cardinality estimation (histograms +
/// independence + uniformity assumptions), standing in for the
/// PostgreSQL / MaxCompute optimizers used by the paper's `Optimizer`
/// baseline.
class CardinalityEstimator {
 public:
  explicit CardinalityEstimator(const Catalog* catalog) : catalog_(catalog) {}

  /// Estimated output rows of `plan`.
  double EstimateRows(const PlanNode& plan) const;

  /// Estimated output bytes of `plan` (rows x average source row width).
  double EstimateBytes(const PlanNode& plan) const;

  /// Estimated selectivity of `pred` over `input`'s output.
  double EstimateSelectivity(const Expr& pred, const PlanNode& input) const;

  /// EstimateRows(plan) given its children's estimated rows (`child0`,
  /// `child1`; ignored past the node's arity), so a bottom-up walk can
  /// estimate every node once.
  double RowsFromChildren(const PlanNode& plan, double child0,
                          double child1) const;

  /// EstimateBytes(plan) given its estimated `rows` and its scanned
  /// base tables (distinct, ascending by name, as ScannedTables()).
  double BytesFromRows(const PlanNode& plan, double rows,
                       const std::vector<const std::string*>& tables) const;

 private:
  /// Column-statistics lookup: traces output column `index` of `node`
  /// back to its originating base-table column, if any.
  const ColumnStats* ResolveColumn(const PlanNode& node, size_t index) const;

  /// Estimated distinct count of a column (1 when unknown).
  double DistinctOf(const PlanNode& node, size_t index) const;

  const Catalog* catalog_;
};

/// \brief The `Optimizer` baseline of Table III:
/// A(q|v) = Est(q) - Est(s) + Est(scan of v), each term derived from
/// estimated cardinalities priced with the engine's cost constants. Its
/// error accumulates across the three independent estimates, which is
/// exactly the weakness the paper reports.
class TraditionalEstimator : public CostEstimator {
 public:
  TraditionalEstimator(const Catalog* catalog, Pricing pricing)
      : cardinality_(catalog), pricing_(pricing) {}

  /// No training: the model is the catalog statistics.
  Status Train(const std::vector<CostSample>&) override {
    return Status::OK();
  }

  double Estimate(const CostSample& sample) const override;

  std::string name() const override { return "Optimizer"; }

  /// Estimated execution cost ($) of a single plan (also used by the
  /// DeepLearn baseline for the view-scan term). One bottom-up walk
  /// estimates each node's rows, cpu units and bytes once.
  double EstimatePlanCost(const PlanNode& plan) const;

  /// Estimated cost ($) of scanning the materialization of `view_plan`.
  double EstimateViewScanCost(const PlanNode& view_plan) const;

 private:
  CardinalityEstimator cardinality_;
  Pricing pricing_;
};

}  // namespace autoview
