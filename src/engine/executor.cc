#include "engine/executor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>

#include "util/failpoint.h"
#include "util/logging.h"

namespace autoview {

namespace {

/// One equi-join key pair: column indices into the left/right children.
struct EquiKey {
  size_t left = 0;
  size_t right = 0;
};

/// Splits a join condition into equi-key pairs (left col == right col)
/// and residual conjuncts, which stay the condition's own nodes.
void SplitJoinCondition(const Expr& cond, size_t left_width,
                        std::vector<EquiKey>* keys,
                        std::vector<const Expr*>* residual) {
  if (cond.kind() == ExprKind::kAnd) {
    for (const auto& child : cond.children()) {
      SplitJoinCondition(*child, left_width, keys, residual);
    }
    return;
  }
  if (cond.kind() == ExprKind::kCompare &&
      cond.compare_op() == CompareOp::kEq &&
      cond.children()[0]->kind() == ExprKind::kColumn &&
      cond.children()[1]->kind() == ExprKind::kColumn) {
    size_t a = cond.children()[0]->column_index();
    size_t b = cond.children()[1]->column_index();
    if (a >= left_width && b < left_width) std::swap(a, b);
    if (a < left_width && b >= left_width) {
      keys->push_back({a, b - left_width});
      return;
    }
  }
  residual->push_back(&cond);
}

/// Appends the conjuncts of `expr` (its AND tree, flattened in order).
void FlattenAnd(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind() != ExprKind::kAnd) {
    out->push_back(&expr);
    return;
  }
  for (const auto& child : expr.children()) FlattenAnd(*child, out);
}

/// A conjunction bound once per operator to the rows it reads.
///
/// Each comparison of a column with a literal, or of two columns, becomes
/// a term that reads its cells in place; any other conjunct (OR, NOT, two
/// literals) is a term the Expr tree evaluates. The caller checks the
/// conjuncts' columns against the row width first.
class BoundPredicate {
 public:
  explicit BoundPredicate(const std::vector<const Expr*>& conjuncts) {
    terms_.reserve(conjuncts.size());
    for (const Expr* conjunct : conjuncts) {
      terms_.push_back(BindTerm(*conjunct));
    }
  }

  /// True when every conjunct holds on `row`.
  bool Matches(const Row& row) const {
    for (const Term& term : terms_) {
      if (!(term.tree != nullptr ? term.tree->EvalPredicate(row)
                                 : Holds(term, row))) {
        return false;
      }
    }
    return true;
  }

 private:
  struct Term {
    const Expr* tree = nullptr;  ///< set: evaluated by the Expr tree
    CompareOp op = CompareOp::kEq;
    size_t a = 0;                    ///< the (first) column
    size_t b = 0;                    ///< the second column, if no literal
    const Value* literal = nullptr;  ///< the literal compared with `a`
    bool negate = false;             ///< the literal was on the left
  };

  static Term BindTerm(const Expr& conjunct) {
    Term term;
    if (conjunct.kind() != ExprKind::kCompare) {
      term.tree = &conjunct;
      return term;
    }
    const Expr& l = *conjunct.children()[0];
    const Expr& r = *conjunct.children()[1];
    term.op = conjunct.compare_op();
    const bool l_col = l.kind() == ExprKind::kColumn;
    const bool r_col = r.kind() == ExprKind::kColumn;
    if (l_col && r_col) {
      term.a = l.column_index();
      term.b = r.column_index();
    } else if (l_col && r.kind() == ExprKind::kLiteral) {
      term.a = l.column_index();
      term.literal = &r.literal();
    } else if (r_col && l.kind() == ExprKind::kLiteral) {
      // Compare(lit, cell) == -Compare(cell, lit).
      term.a = r.column_index();
      term.literal = &l.literal();
      term.negate = true;
    } else {
      term.tree = &conjunct;
    }
    return term;
  }

  /// A comparison term, read in place.
  static bool Holds(const Term& term, const Row& row) {
    const Value& x = row[term.a];
    int c;
    if (term.literal != nullptr) {
      c = x.Compare(*term.literal);
      if (term.negate) c = -c;
    } else {
      c = x.Compare(row[term.b]);
    }
    return CompareHolds(term.op, c);
  }

  std::vector<Term> terms_;
};

/// Sum of the cells' ByteSize(): one row's share of Table::ByteSize().
uint64_t RowBytes(const Row& row) {
  uint64_t total = 0;
  for (const Value& cell : row) total += cell.ByteSize();
  return total;
}

/// Composite hash of the cells `cols` of `row`. Value::Hash() hashes equal
/// values alike (int 3 and double 3.0 included), so rows whose key cells
/// are pairwise `==` hash alike.
uint64_t KeyHash(const Row& row, const std::vector<size_t>& cols) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t c : cols) {
    // splitmix64 finalizer: spreads the identity hash of small ints over
    // the low bits the bucket mask keeps.
    h += row[c].Hash();
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
  }
  return h;
}

/// True when a[a_cols[i]] == b[b_cols[i]] for every i (Value::operator==,
/// the same equality filters use).
bool KeysEqual(const Row& a, const std::vector<size_t>& a_cols, const Row& b,
               const std::vector<size_t>& b_cols) {
  for (size_t i = 0; i < a_cols.size(); ++i) {
    if (!(a[a_cols[i]] == b[b_cols[i]])) return false;
  }
  return true;
}

/// A chained hash index over entries numbered 0, 1, 2, ... in order of
/// Add(): join build rows, aggregate groups or distinct rows. The caller
/// owns the entries and decides equality; the index keeps each entry's
/// hash, so most chain mismatches are rejected without comparing Values.
/// Each chain lists its entries in the order they were added.
class KeyIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  explicit KeyIndex(size_t expected) {
    size_t buckets = 16;
    while (buckets < expected) buckets *= 2;
    heads_.assign(buckets, kNone);
    tails_.assign(buckets, kNone);
    hashes_.reserve(expected);
    next_.reserve(expected);
  }

  /// Adds the next entry under `hash` and returns its id.
  uint32_t Add(uint64_t hash) {
    if (hashes_.size() == heads_.size()) Grow();
    const auto id = static_cast<uint32_t>(hashes_.size());
    hashes_.push_back(hash);
    next_.push_back(kNone);
    Link(id);
    return id;
  }

  /// The first entry, in order of addition, whose hash is `hash` and for
  /// which `match(entry)` holds; kNone if there is none. Calling with a
  /// `match` that always returns false visits every candidate.
  template <typename Match>
  uint32_t Find(uint64_t hash, Match&& match) const {
    for (uint32_t e = heads_[hash & (heads_.size() - 1)]; e != kNone;
         e = next_[e]) {
      if (hashes_[e] == hash && match(e)) return e;
    }
    return kNone;
  }

 private:
  void Link(uint32_t id) {
    const size_t b = hashes_[id] & (heads_.size() - 1);
    if (tails_[b] == kNone) {
      heads_[b] = id;
    } else {
      next_[tails_[b]] = id;
    }
    tails_[b] = id;
  }

  /// Doubles the buckets, relinking entries in id order so every chain
  /// stays in order of addition.
  void Grow() {
    heads_.assign(heads_.size() * 2, kNone);
    tails_.assign(heads_.size(), kNone);
    for (uint32_t id = 0; id < hashes_.size(); ++id) {
      next_[id] = kNone;
      Link(id);
    }
  }

  std::vector<uint32_t> heads_;
  std::vector<uint32_t> tails_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> next_;
};

/// Accumulation state for one aggregate item.
struct AggState {
  int64_t count = 0;
  int64_t sum_int = 0;
  double sum_double = 0.0;
  std::optional<Value> min_value;
  std::optional<Value> max_value;
};

}  // namespace

/// One operator's output: its header, plus the rows it holds.
///
/// The header is a plan node's output or a scanned table's columns; both
/// outlive the execution. The rows are either owned or borrowed from a
/// scanned table. A borrowed table stays valid as long as a
/// Database::GetTable() pointer does, which covers the whole plan (base
/// tables are never dropped, served views are pinned). Only borrowed rows
/// carry a selection: when present, it holds the positions in rows() of
/// the rows this result holds, ascending; when absent, it holds them all.
/// Owned rows are all held (an operator that drops some erases them).
struct Executor::NodeResult {
  const std::vector<OutputColumn>* columns = nullptr;
  std::vector<Row> owned;
  const Table* borrowed = nullptr;
  std::optional<std::vector<uint32_t>> selection;
  uint64_t bytes = 0;  ///< sum of Value::ByteSize() over the held cells
  double peak_bytes = 0.0;

  const std::vector<Row>& rows() const {
    return borrowed != nullptr ? borrowed->rows : owned;
  }
  size_t width() const { return columns->size(); }
  size_t size() const {
    return selection ? selection->size() : rows().size();
  }
  /// Calls f(position in rows(), row) for each held row, in order.
  template <typename F>
  void ForEach(F&& f) const {
    const std::vector<Row>& all = rows();
    if (selection) {
      for (uint32_t i : *selection) f(i, all[i]);
    } else {
      for (size_t i = 0; i < all.size(); ++i) f(i, all[i]);
    }
  }
  /// The held rows as an owned vector: moved out of owned rows, copied
  /// out of borrowed ones.
  std::vector<Row> TakeRows() && {
    if (borrowed == nullptr) return std::move(owned);
    if (!selection) return borrowed->rows;
    std::vector<Row> out;
    out.reserve(selection->size());
    for (uint32_t i : *selection) out.push_back(borrowed->rows[i]);
    return out;
  }
};

Result<ExecResult> Executor::Execute(const PlanNode& plan) const {
  double cpu = 0.0;
  AV_ASSIGN_OR_RETURN(NodeResult root, Exec(plan, &cpu));
  ExecResult result;
  result.cost = Report(root, cpu);
  result.table.columns = *root.columns;
  result.table.rows = std::move(root).TakeRows();
  return result;
}

Result<CostReport> Executor::ExecuteForCost(const PlanNode& plan) const {
  double cpu = 0.0;
  AV_ASSIGN_OR_RETURN(NodeResult root, Exec(plan, &cpu));
  return Report(root, cpu);
}

CostReport Executor::Report(const NodeResult& root, double cpu_units) const {
  CostReport cost;
  // Plans whose peak intermediate exceeds the memory budget pay the
  // spill penalty on all their work (see CostConstants).
  cost.cpu_units = cpu_units * consts_.SpillMultiplier(root.peak_bytes);
  cost.peak_bytes = root.peak_bytes;
  cost.output_rows = root.size();
  cost.output_bytes = root.bytes;
  return cost;
}

Result<Executor::NodeResult> Executor::Exec(const PlanNode& node,
                                            double* cpu) const {
  switch (node.op()) {
    case PlanOp::kTableScan:
      return ExecScan(node, cpu);
    case PlanOp::kFilter:
      return ExecFilter(node, cpu);
    case PlanOp::kProject:
      return ExecProject(node, cpu);
    case PlanOp::kJoin:
      return ExecJoin(node, cpu);
    case PlanOp::kAggregate:
      return ExecAggregate(node, cpu);
    case PlanOp::kSort:
      return ExecSort(node, cpu);
    case PlanOp::kLimit:
      return ExecLimit(node, cpu);
    case PlanOp::kDistinct:
      return ExecDistinct(node, cpu);
  }
  return Status::Internal("unknown plan operator");
}

Result<Executor::NodeResult> Executor::ExecSort(const PlanNode& node,
                                                double* cpu) const {
  AV_ASSIGN_OR_RETURN(NodeResult in, Exec(*node.child(0), cpu));
  const double n = static_cast<double>(in.size());
  *cpu += consts_.sort_row * n * std::log2(n + 2.0);
  const auto& keys = node.sort_keys();
  NodeResult out;
  out.columns = in.columns;
  out.bytes = in.bytes;
  out.peak_bytes =
      std::max(in.peak_bytes, static_cast<double>(out.bytes) * 2);
  out.owned = std::move(in).TakeRows();
  std::stable_sort(
      out.owned.begin(), out.owned.end(),
      [&keys](const Row& a, const Row& b) {
        for (const auto& key : keys) {
          const int c = a[key.column].Compare(b[key.column]);
          if (c != 0) return key.descending ? c > 0 : c < 0;
        }
        // Full-row tie-break keeps the order independent of the input
        // order (so LIMIT results survive plan rewrites).
        for (size_t i = 0; i < a.size(); ++i) {
          const int c = a[i].Compare(b[i]);
          if (c != 0) return c < 0;
        }
        return false;
      });
  return out;
}

Result<Executor::NodeResult> Executor::ExecLimit(const PlanNode& node,
                                                 double* cpu) const {
  AV_ASSIGN_OR_RETURN(NodeResult out, Exec(*node.child(0), cpu));
  const size_t n = static_cast<size_t>(node.limit());
  if (out.size() > n) {
    if (out.borrowed == nullptr) {
      out.owned.resize(n);
    } else if (out.selection) {
      out.selection->resize(n);
    } else {
      out.selection.emplace(n);
      for (uint32_t i = 0; i < n; ++i) (*out.selection)[i] = i;
    }
    out.bytes = 0;
    out.ForEach([&](uint32_t, const Row& row) { out.bytes += RowBytes(row); });
  }
  *cpu += consts_.limit_row * static_cast<double>(out.size());
  return out;
}

Result<Executor::NodeResult> Executor::ExecDistinct(const PlanNode& node,
                                                    double* cpu) const {
  AV_ASSIGN_OR_RETURN(NodeResult in, Exec(*node.child(0), cpu));
  *cpu += consts_.distinct_row * static_cast<double>(in.size());
  NodeResult out;
  out.columns = &node.output();
  std::vector<size_t> all_cols(node.output().size());
  for (size_t c = 0; c < all_cols.size(); ++c) all_cols[c] = c;
  // Kept rows are moved out of an owned input, copied from a borrowed one.
  std::vector<Row>* owned = in.borrowed == nullptr ? &in.owned : nullptr;
  KeyIndex seen(in.size());
  in.ForEach([&](uint32_t i, const Row& row) {
    const uint64_t h = KeyHash(row, all_cols);
    const auto same = [&](uint32_t e) {
      return KeysEqual(out.owned[e], all_cols, row, all_cols);
    };
    if (seen.Find(h, same) != KeyIndex::kNone) return;
    seen.Add(h);
    out.bytes += RowBytes(row);
    out.owned.push_back(owned != nullptr ? std::move((*owned)[i]) : row);
  });
  // The kept rows plus only the duplicate input rows: the input is
  // measured as if the kept rows had been moved out of it. This is part
  // of the pinned cost contract; counting the whole input would change
  // peak_bytes and, through SpillMultiplier, cpu_units.
  const double here = static_cast<double>(out.bytes) +
                      static_cast<double>(in.bytes - out.bytes);
  out.peak_bytes = std::max(in.peak_bytes, here);
  return out;
}

Result<Executor::NodeResult> Executor::ExecScan(const PlanNode& node,
                                                double* cpu) const {
  AV_FAILPOINT_STATUS("executor.scan");
  NodeResult out;
  AV_ASSIGN_OR_RETURN(out.borrowed, db_->GetTable(node.table(), &out.bytes));
  out.columns = &out.borrowed->columns;
  *cpu += consts_.scan_row * static_cast<double>(out.size());
  out.peak_bytes = static_cast<double>(out.bytes);
  return out;
}

Result<Executor::NodeResult> Executor::ExecFilter(const PlanNode& node,
                                                  double* cpu) const {
  AV_ASSIGN_OR_RETURN(NodeResult out, Exec(*node.child(0), cpu));
  *cpu += consts_.filter_row * static_cast<double>(out.size());
  AV_RETURN_NOT_OK(CheckColumnBounds(*node.predicate(), out.width()));
  std::vector<const Expr*> conjuncts;
  FlattenAnd(*node.predicate(), &conjuncts);
  const BoundPredicate predicate(conjuncts);
  std::vector<uint32_t> kept;
  uint64_t bytes = 0;
  out.ForEach([&](uint32_t i, const Row& row) {
    if (!predicate.Matches(row)) return;
    bytes += RowBytes(row);
    kept.push_back(i);
  });
  if (out.borrowed != nullptr) {
    // The stored rows stay where they are; the selection narrows to the
    // rows that pass.
    out.selection = std::move(kept);
  } else {
    // Owned rows that pass move to the front; the rest are freed here.
    for (size_t k = 0; k < kept.size(); ++k) {
      if (kept[k] != k) out.owned[k] = std::move(out.owned[kept[k]]);
    }
    out.owned.resize(kept.size());
  }
  out.columns = &node.output();
  out.bytes = bytes;
  out.peak_bytes = std::max(out.peak_bytes, static_cast<double>(bytes));
  return out;
}

Result<Executor::NodeResult> Executor::ExecProject(const PlanNode& node,
                                                   double* cpu) const {
  AV_ASSIGN_OR_RETURN(NodeResult in, Exec(*node.child(0), cpu));
  *cpu += consts_.project_row * static_cast<double>(in.size());
  const auto& items = node.projections();
  for (const auto& item : items) {
    AV_RETURN_NOT_OK(CheckColumnBounds(*item.expr, in.width()));
  }
  NodeResult out;
  out.columns = &node.output();
  out.owned.reserve(in.size());
  in.ForEach([&](uint32_t, const Row& row) {
    Row projected;
    projected.reserve(items.size());
    for (const auto& item : items) {
      projected.push_back(item.expr->EvalScalar(row));
    }
    out.bytes += RowBytes(projected);
    out.owned.push_back(std::move(projected));
  });
  out.peak_bytes = std::max(in.peak_bytes, static_cast<double>(out.bytes));
  return out;
}

Result<Executor::NodeResult> Executor::ExecJoin(const PlanNode& node,
                                                double* cpu) const {
  AV_ASSIGN_OR_RETURN(NodeResult left, Exec(*node.child(0), cpu));
  AV_ASSIGN_OR_RETURN(NodeResult right, Exec(*node.child(1), cpu));
  const size_t left_width = left.width();
  const Expr& condition = *node.join_condition();
  AV_RETURN_NOT_OK(CheckColumnBounds(condition, left_width + right.width()));

  std::vector<EquiKey> keys;
  std::vector<const Expr*> residual;
  SplitJoinCondition(condition, left_width, &keys, &residual);
  const BoundPredicate predicate(residual);

  NodeResult out;
  out.columns = &node.output();

  auto emit_if_match = [&](const Row& l, const Row& r) {
    Row combined;
    combined.reserve(l.size() + r.size());
    combined.insert(combined.end(), l.begin(), l.end());
    combined.insert(combined.end(), r.begin(), r.end());
    if (!predicate.Matches(combined)) return;
    *cpu += consts_.join_output_row;
    out.bytes += RowBytes(combined);
    out.owned.push_back(std::move(combined));
  };

  double aux_bytes = 0.0;
  if (!keys.empty()) {
    // Hash join: build on the right child, probe with the left. Build
    // entry e is the right child's e-th held row, and chains keep entries
    // in build order.
    std::vector<size_t> right_cols, left_cols;
    for (const auto& k : keys) {
      right_cols.push_back(k.right);
      left_cols.push_back(k.left);
    }
    KeyIndex build(right.size());
    std::vector<const Row*> build_rows;
    build_rows.reserve(right.size());
    right.ForEach([&](uint32_t, const Row& row) {
      build.Add(KeyHash(row, right_cols));
      build_rows.push_back(&row);
    });
    *cpu += consts_.join_build_row * static_cast<double>(right.size());
    aux_bytes = static_cast<double>(right.bytes);
    left.ForEach([&](uint32_t, const Row& l) {
      *cpu += consts_.join_probe_row;
      build.Find(KeyHash(l, left_cols), [&](uint32_t e) {
        const Row& r = *build_rows[e];
        if (KeysEqual(l, left_cols, r, right_cols)) emit_if_match(l, r);
        return false;  // visit every candidate
      });
    });
  } else {
    // Nested loop fallback.
    *cpu += consts_.nested_loop_pair * static_cast<double>(left.size()) *
            static_cast<double>(right.size());
    left.ForEach([&](uint32_t, const Row& l) {
      right.ForEach([&](uint32_t, const Row& r) { emit_if_match(l, r); });
    });
  }

  const double here = static_cast<double>(out.bytes) + aux_bytes +
                      static_cast<double>(left.bytes);
  out.peak_bytes = std::max({left.peak_bytes, right.peak_bytes, here});
  return out;
}

Result<Executor::NodeResult> Executor::ExecAggregate(const PlanNode& node,
                                                     double* cpu) const {
  AV_ASSIGN_OR_RETURN(NodeResult in, Exec(*node.child(0), cpu));
  *cpu += consts_.agg_update_row * static_cast<double>(in.size());

  const auto& group_by = node.group_by();
  const auto& aggs = node.aggregates();

  // Groups in first-seen order; `index` finds a row's group by its key.
  struct Group {
    Row key;  ///< the group-by cells
    std::vector<AggState> states;
  };
  std::vector<Group> groups;
  std::vector<size_t> key_cols(group_by.size());
  for (size_t g = 0; g < key_cols.size(); ++g) key_cols[g] = g;
  KeyIndex index(16);
  in.ForEach([&](uint32_t, const Row& row) {
    const uint64_t h = KeyHash(row, group_by);
    uint32_t e = index.Find(h, [&](uint32_t candidate) {
      return KeysEqual(row, group_by, groups[candidate].key, key_cols);
    });
    if (e == KeyIndex::kNone) {
      e = index.Add(h);
      Group& group = groups.emplace_back();
      group.key.reserve(group_by.size());
      for (size_t g : group_by) group.key.push_back(row[g]);
      group.states.resize(aggs.size());
    }
    auto& states = groups[e].states;
    for (size_t a = 0; a < aggs.size(); ++a) {
      AggState& st = states[a];
      st.count += 1;
      if (aggs[a].kind == AggKind::kCountStar ||
          aggs[a].kind == AggKind::kCount) {
        continue;
      }
      const Value& v = row[*aggs[a].input_column];
      switch (aggs[a].kind) {
        case AggKind::kSum:
        case AggKind::kAvg:
          if (v.is_int()) {
            st.sum_int += v.AsInt();
          }
          st.sum_double += v.AsDouble();
          break;
        case AggKind::kMin:
          if (!st.min_value || v < *st.min_value) st.min_value = v;
          break;
        case AggKind::kMax:
          if (!st.max_value || *st.max_value < v) st.max_value = v;
          break;
        default:
          break;
      }
    }
  });

  // Global aggregate over empty input still yields one row.
  if (groups.empty() && group_by.empty()) {
    groups.push_back({Row{}, std::vector<AggState>(aggs.size())});
  }

  NodeResult out;
  out.columns = &node.output();
  out.owned.reserve(groups.size());
  for (Group& group : groups) {
    Row row = std::move(group.key);
    for (size_t a = 0; a < aggs.size(); ++a) {
      const AggState& st = group.states[a];
      const ColumnType out_type = node.output()[group_by.size() + a].type;
      switch (aggs[a].kind) {
        case AggKind::kCountStar:
        case AggKind::kCount:
          row.push_back(Value(st.count));
          break;
        case AggKind::kSum:
          if (out_type == ColumnType::kInt64) {
            row.push_back(Value(st.sum_int));
          } else {
            row.push_back(Value(st.sum_double));
          }
          break;
        case AggKind::kAvg:
          row.push_back(Value(
              st.count ? st.sum_double / static_cast<double>(st.count) : 0.0));
          break;
        case AggKind::kMin:
          row.push_back(st.min_value.value_or(Value(int64_t{0})));
          break;
        case AggKind::kMax:
          row.push_back(st.max_value.value_or(Value(int64_t{0})));
          break;
      }
    }
    out.bytes += RowBytes(row);
    out.owned.push_back(std::move(row));
  }
  *cpu += consts_.agg_output_row * static_cast<double>(out.owned.size());

  const double here = static_cast<double>(out.bytes) * 2.0 +
                      static_cast<double>(in.bytes);
  out.peak_bytes = std::max(in.peak_bytes, here);
  return out;
}

}  // namespace autoview
