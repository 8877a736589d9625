#include "ilp/problem_index.h"

#include <algorithm>

namespace autoview {

MvsProblemIndex::MvsProblemIndex(const MvsProblem& problem)
    : overhead_(problem.overhead) {
  const size_t nq = problem.num_queries();
  const size_t nz = problem.num_views();

  rows_.resize(nq);
  columns_.resize(nz);
  adjacency_.resize(nz);

  for (size_t i = 0; i < nq; ++i) {
    const auto& row = problem.benefit[i];
    for (size_t j = 0; j < nz; ++j) {
      if (row[j] == 0.0) continue;
      columns_[j].push_back({i, row[j]});
      ++num_nonzero_;
      if (row[j] > 0) {
        rows_[i].push_back({j, row[j]});
        ++num_positive_;
      }
    }
  }
  for (size_t j = 0; j < nz; ++j) {
    for (size_t k = 0; k < nz; ++k) {
      if (problem.overlap[j][k]) adjacency_[j].push_back(k);
    }
  }
  BuildOrdersAndAggregates();
}

MvsProblemIndex::MvsProblemIndex(const CompactMvsProblem& compact)
    : overhead_(compact.overhead) {
  const size_t nq = compact.num_queries();
  const size_t nz = compact.num_views();

  rows_.resize(nq);
  columns_.resize(nz);
  adjacency_.resize(nz);

  // Rows were appended in ascending query order with ascending view ids,
  // so this walk pushes columns_[j] entries in ascending query order and
  // rows_[i] entries in ascending view order — the exact structures the
  // dense constructor builds.
  for (size_t i = 0; i < nq; ++i) {
    compact.rows.ForEachEntry(i, [&](size_t j, double benefit) {
      columns_[j].push_back({i, benefit});
      ++num_nonzero_;
      if (benefit > 0) {
        rows_[i].push_back({j, benefit});
        ++num_positive_;
      }
    });
  }
  for (size_t j = 0; j < nz; ++j) {
    adjacency_[j].assign(compact.overlap_adjacency[j].begin(),
                         compact.overlap_adjacency[j].end());
  }
  BuildOrdersAndAggregates();
}

void MvsProblemIndex::RebuildRowOrder(size_t i) {
  // Benefit-descending exploration order, computed with the same
  // comparator Y-Opt's per-solve sort uses. Duplicate benefits make
  // an unstable subset sort order-ambiguous, so flag them; the solver
  // falls back to sorting the filtered subset itself on such rows.
  auto& order = rows_by_benefit_[i];
  order.resize(rows_[i].size());
  for (size_t p = 0; p < order.size(); ++p) order[p] = p;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return rows_[i][a].benefit > rows_[i][b].benefit;
  });
  row_has_ties_[i] = false;
  for (size_t p = 1; p < order.size(); ++p) {
    if (rows_[i][order[p]].benefit == rows_[i][order[p - 1]].benefit) {
      row_has_ties_[i] = true;
      break;
    }
  }
}

void MvsProblemIndex::RecomputeMaxBenefit(size_t j) {
  // Same ascending-query accumulation as MvsProblem::MaxBenefit.
  double total = 0.0;
  for (const Entry& e : columns_[j]) {
    if (e.benefit > 0) total += e.benefit;
  }
  max_benefit_[j] = total;
}

void MvsProblemIndex::RecomputeTotals() {
  // Same ascending-view accumulation as a dense per-view loop. Always a
  // fresh fold: float addition is not associative, so adjusting the old
  // total by a delta would drift from what a rebuild computes.
  total_overhead_ = 0.0;
  total_max_benefit_ = 0.0;
  for (size_t j = 0; j < overhead_.size(); ++j) {
    total_overhead_ += overhead_[j];
    total_max_benefit_ += max_benefit_[j];
  }
}

void MvsProblemIndex::BuildOrdersAndAggregates() {
  const size_t nq = rows_.size();
  const size_t nz = overhead_.size();

  rows_by_benefit_.resize(nq);
  row_has_ties_.assign(nq, false);
  max_benefit_.assign(nz, 0.0);

  for (size_t i = 0; i < nq; ++i) RebuildRowOrder(i);
  for (size_t j = 0; j < nz; ++j) RecomputeMaxBenefit(j);
  RecomputeTotals();
}

double MvsProblemIndex::EvaluateUtilitySparse(
    const std::vector<bool>& z, const std::vector<std::vector<bool>>& y) const {
  // Bit-identity: the dense EvaluateUtility adds benefit[i][j] for every
  // used cell in row-major order; used cells all lie in the positive
  // support, so walking the CSR rows (ascending view within ascending
  // query) performs the identical addition sequence.
  double utility = 0.0;
  for (size_t i = 0; i < rows_.size(); ++i) {
    const auto& yi = y[i];
    for (const Entry& e : rows_[i]) {
      if (yi[e.index]) utility += e.benefit;
    }
  }
  for (size_t j = 0; j < overhead_.size(); ++j) {
    if (z[j]) utility -= overhead_[j];
  }
  return utility;
}

Status MvsProblemIndex::InsertQueryRow(const std::vector<Entry>& entries) {
  const size_t i = rows_.size();
  const size_t nz = overhead_.size();
  for (size_t p = 0; p < entries.size(); ++p) {
    if (entries[p].index >= nz) {
      return Status::InvalidArgument("row entry view index out of range");
    }
    if (entries[p].benefit == 0.0) {
      return Status::InvalidArgument("row entry benefit must be nonzero");
    }
    if (p > 0 && entries[p].index <= entries[p - 1].index) {
      return Status::InvalidArgument("row entries must ascend by view");
    }
  }

  rows_.emplace_back();
  rows_by_benefit_.emplace_back();
  row_has_ties_.push_back(false);
  for (const Entry& e : entries) {
    // i is the new maximum query index, so appending keeps every
    // column ascending — and extends its MaxBenefit left-fold exactly
    // (old_fold + b is the fold over the extended sequence).
    columns_[e.index].push_back({i, e.benefit});
    ++num_nonzero_;
    if (e.benefit > 0) {
      rows_[i].push_back(e);
      ++num_positive_;
      max_benefit_[e.index] += e.benefit;
    }
  }
  RebuildRowOrder(i);
  RecomputeTotals();
  return Status::OK();
}

Status MvsProblemIndex::RetireQueryRow(size_t i) {
  if (i >= rows_.size()) {
    return Status::InvalidArgument("query index out of range");
  }
  // Remove row i from every column and renumber queries above it. A
  // removal from the middle of a column breaks the left-fold, so those
  // columns get a fresh MaxBenefit fold (identical to a rebuild's).
  for (size_t j = 0; j < columns_.size(); ++j) {
    auto& column = columns_[j];
    bool lost_positive = false;
    size_t out = 0;
    for (size_t p = 0; p < column.size(); ++p) {
      if (column[p].index == i) {
        --num_nonzero_;
        if (column[p].benefit > 0) {
          --num_positive_;
          lost_positive = true;
        }
        continue;
      }
      column[out] = column[p];
      if (column[out].index > i) --column[out].index;
      ++out;
    }
    column.resize(out);
    if (lost_positive) RecomputeMaxBenefit(j);
  }
  rows_.erase(rows_.begin() + static_cast<ptrdiff_t>(i));
  rows_by_benefit_.erase(rows_by_benefit_.begin() + static_cast<ptrdiff_t>(i));
  row_has_ties_.erase(row_has_ties_.begin() + static_cast<ptrdiff_t>(i));
  RecomputeTotals();
  return Status::OK();
}

Status MvsProblemIndex::AddCandidateView(double overhead,
                                         const std::vector<Entry>& column,
                                         const std::vector<size_t>& overlapping) {
  const size_t j = overhead_.size();
  const size_t nq = rows_.size();
  for (size_t p = 0; p < column.size(); ++p) {
    if (column[p].index >= nq) {
      return Status::InvalidArgument("column entry query index out of range");
    }
    if (column[p].benefit == 0.0) {
      return Status::InvalidArgument("column entry benefit must be nonzero");
    }
    if (p > 0 && column[p].index <= column[p - 1].index) {
      return Status::InvalidArgument("column entries must ascend by query");
    }
  }
  for (size_t p = 0; p < overlapping.size(); ++p) {
    if (overlapping[p] >= j) {
      return Status::InvalidArgument("overlap partner out of range");
    }
    if (p > 0 && overlapping[p] <= overlapping[p - 1]) {
      return Status::InvalidArgument("overlap partners must ascend");
    }
  }

  overhead_.push_back(overhead);
  columns_.push_back(column);
  max_benefit_.push_back(0.0);
  for (const Entry& e : column) {
    ++num_nonzero_;
    if (e.benefit > 0) {
      // j is the new maximum view index, so appending keeps the row
      // ascending; the row's exploration order is then re-sorted from
      // the identity permutation, exactly as a rebuild sorts it.
      rows_[e.index].push_back({j, e.benefit});
      ++num_positive_;
      RebuildRowOrder(e.index);
    }
  }
  RecomputeMaxBenefit(j);
  adjacency_.emplace_back(overlapping);
  for (size_t k : overlapping) {
    adjacency_[k].push_back(j);  // j is max: append keeps ascending
  }
  RecomputeTotals();
  return Status::OK();
}

Status MvsProblemIndex::RetireCandidateView(size_t j) {
  if (j >= overhead_.size()) {
    return Status::InvalidArgument("view index out of range");
  }
  // Rows: drop the j entry where present (then re-sort that row's
  // exploration order from identity — the rebuild's code path) and
  // renumber views above j. Rows that only renumber keep their
  // position-based permutation: positions and benefits are unchanged.
  for (size_t i = 0; i < rows_.size(); ++i) {
    auto& row = rows_[i];
    bool lost = false;
    size_t out = 0;
    for (size_t p = 0; p < row.size(); ++p) {
      if (row[p].index == j) {
        lost = true;
        --num_positive_;
        continue;
      }
      row[out] = row[p];
      if (row[out].index > j) --row[out].index;
      ++out;
    }
    if (lost) {
      row.resize(out);
      RebuildRowOrder(i);
    }
  }
  num_nonzero_ -= columns_[j].size();

  // Adjacency: remove j's symmetric edges, then renumber. No list
  // contains j afterwards, so a uniform decrement of the > j tail keeps
  // every list strictly ascending.
  for (size_t k : adjacency_[j]) {
    auto& adj = adjacency_[k];
    adj.erase(std::remove(adj.begin(), adj.end(), j), adj.end());
  }
  adjacency_.erase(adjacency_.begin() + static_cast<ptrdiff_t>(j));
  for (auto& adj : adjacency_) {
    for (size_t& k : adj) {
      if (k > j) --k;
    }
  }

  columns_.erase(columns_.begin() + static_cast<ptrdiff_t>(j));
  overhead_.erase(overhead_.begin() + static_cast<ptrdiff_t>(j));
  max_benefit_.erase(max_benefit_.begin() + static_cast<ptrdiff_t>(j));
  RecomputeTotals();
  return Status::OK();
}

bool MvsProblemIndex::operator==(const MvsProblemIndex& other) const {
  return overhead_ == other.overhead_ && rows_ == other.rows_ &&
         rows_by_benefit_ == other.rows_by_benefit_ &&
         row_has_ties_ == other.row_has_ties_ && columns_ == other.columns_ &&
         adjacency_ == other.adjacency_ &&
         max_benefit_ == other.max_benefit_ &&
         total_overhead_ == other.total_overhead_ &&
         total_max_benefit_ == other.total_max_benefit_ &&
         num_nonzero_ == other.num_nonzero_ &&
         num_positive_ == other.num_positive_;
}

double MvsProblemIndex::CurrentBenefit(
    size_t j, const std::vector<std::vector<bool>>& y) const {
  // Matches the dense pass `for i: if (y[i][j] && benefit[i][j] > 0)
  // b_cur[j] += benefit[i][j]` — ascending query order over the column.
  double total = 0.0;
  for (const Entry& e : columns_[j]) {
    if (e.benefit > 0 && y[e.index][j]) total += e.benefit;
  }
  return total;
}

}  // namespace autoview
