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
/// and residual conjuncts that must be evaluated on the combined row.
void SplitJoinCondition(const Expr& cond, size_t left_width,
                        std::vector<EquiKey>* keys,
                        std::vector<ExprPtr>* residual) {
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
  // Any non-equi (or single-side) conjunct becomes a residual filter. We
  // re-wrap it as a shared Expr via a structural copy through shift 0.
  residual->push_back(cond.ShiftColumns(0));
}

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

Result<ExecResult> Executor::Execute(const PlanNode& plan) const {
  double cpu = 0.0;
  AV_ASSIGN_OR_RETURN(NodeResult root, Exec(plan, &cpu));
  ExecResult result;
  result.cost = Report(root, cpu);
  result.table = std::move(root).TakeTable();
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
  cost.output_rows = root.rows().size();
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
  const double n = static_cast<double>(in.rows().size());
  *cpu += consts_.sort_row * n * std::log2(n + 2.0);
  const auto& keys = node.sort_keys();
  NodeResult out;
  out.bytes = in.bytes;
  out.table = std::move(in).TakeTable();
  std::stable_sort(
      out.table.rows.begin(), out.table.rows.end(),
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
  out.peak_bytes =
      std::max(in.peak_bytes, static_cast<double>(out.bytes) * 2);
  return out;
}

Result<Executor::NodeResult> Executor::ExecLimit(const PlanNode& node,
                                                 double* cpu) const {
  AV_ASSIGN_OR_RETURN(NodeResult in, Exec(*node.child(0), cpu));
  const size_t n = static_cast<size_t>(node.limit());
  NodeResult out;
  out.peak_bytes = in.peak_bytes;
  if (in.rows().size() <= n) {
    out.bytes = in.bytes;
    out.table = std::move(in).TakeTable();
  } else {
    if (in.borrowed != nullptr) {
      out.table.columns = in.borrowed->columns;
      out.table.rows.assign(in.rows().begin(), in.rows().begin() + n);
    } else {
      out.table = std::move(in.table);
      out.table.rows.resize(n);
    }
    for (const Row& row : out.table.rows) out.bytes += RowBytes(row);
  }
  *cpu += consts_.limit_row * static_cast<double>(out.table.rows.size());
  return out;
}

Result<Executor::NodeResult> Executor::ExecDistinct(const PlanNode& node,
                                                    double* cpu) const {
  AV_ASSIGN_OR_RETURN(NodeResult in, Exec(*node.child(0), cpu));
  const std::vector<Row>& rows = in.rows();
  *cpu += consts_.distinct_row * static_cast<double>(rows.size());
  NodeResult out;
  out.table.columns = node.output();
  std::vector<size_t> all_cols(node.output().size());
  for (size_t c = 0; c < all_cols.size(); ++c) all_cols[c] = c;
  // Kept rows are moved out of an owned input, copied from a borrowed one.
  std::vector<Row>* owned = in.borrowed == nullptr ? &in.table.rows : nullptr;
  KeyIndex seen(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const uint64_t h = KeyHash(rows[i], all_cols);
    const auto same = [&](uint32_t e) {
      return KeysEqual(out.table.rows[e], all_cols, rows[i], all_cols);
    };
    if (seen.Find(h, same) != KeyIndex::kNone) continue;
    seen.Add(h);
    out.bytes += RowBytes(rows[i]);
    out.table.rows.push_back(owned != nullptr ? std::move((*owned)[i])
                                              : rows[i]);
  }
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
  *cpu += consts_.scan_row * static_cast<double>(out.rows().size());
  out.peak_bytes = static_cast<double>(out.bytes);
  return out;
}

Result<Executor::NodeResult> Executor::ExecFilter(const PlanNode& node,
                                                  double* cpu) const {
  AV_ASSIGN_OR_RETURN(NodeResult in, Exec(*node.child(0), cpu));
  const std::vector<Row>& rows = in.rows();
  *cpu += consts_.filter_row * static_cast<double>(rows.size());
  // Owned input rows are moved to the output; borrowed ones are copied,
  // and only when they pass.
  std::vector<Row>* owned = in.borrowed == nullptr ? &in.table.rows : nullptr;
  NodeResult out;
  out.table.columns = node.output();
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!node.predicate()->EvalPredicate(rows[i])) continue;
    out.bytes += RowBytes(rows[i]);
    out.table.rows.push_back(owned != nullptr ? std::move((*owned)[i])
                                              : rows[i]);
  }
  out.peak_bytes = std::max(in.peak_bytes, static_cast<double>(out.bytes));
  return out;
}

Result<Executor::NodeResult> Executor::ExecProject(const PlanNode& node,
                                                   double* cpu) const {
  AV_ASSIGN_OR_RETURN(NodeResult in, Exec(*node.child(0), cpu));
  const std::vector<Row>& rows = in.rows();
  *cpu += consts_.project_row * static_cast<double>(rows.size());
  NodeResult out;
  out.table.columns = node.output();
  out.table.rows.reserve(rows.size());
  for (const Row& row : rows) {
    Row projected;
    projected.reserve(node.projections().size());
    for (const auto& item : node.projections()) {
      projected.push_back(item.expr->EvalScalar(row));
    }
    out.bytes += RowBytes(projected);
    out.table.rows.push_back(std::move(projected));
  }
  out.peak_bytes = std::max(in.peak_bytes, static_cast<double>(out.bytes));
  return out;
}

Result<Executor::NodeResult> Executor::ExecJoin(const PlanNode& node,
                                                double* cpu) const {
  AV_ASSIGN_OR_RETURN(NodeResult left, Exec(*node.child(0), cpu));
  AV_ASSIGN_OR_RETURN(NodeResult right, Exec(*node.child(1), cpu));
  const size_t left_width = node.child(0)->num_output_columns();
  const std::vector<Row>& left_rows = left.rows();
  const std::vector<Row>& right_rows = right.rows();

  std::vector<EquiKey> keys;
  std::vector<ExprPtr> residual;
  SplitJoinCondition(*node.join_condition(), left_width, &keys, &residual);

  NodeResult out;
  out.table.columns = node.output();

  auto emit_if_match = [&](const Row& l, const Row& r) {
    Row combined;
    combined.reserve(l.size() + r.size());
    combined.insert(combined.end(), l.begin(), l.end());
    combined.insert(combined.end(), r.begin(), r.end());
    for (const auto& pred : residual) {
      if (!pred->EvalPredicate(combined)) return;
    }
    *cpu += consts_.join_output_row;
    out.bytes += RowBytes(combined);
    out.table.rows.push_back(std::move(combined));
  };

  double aux_bytes = 0.0;
  if (!keys.empty()) {
    // Hash join: build on the right child, probe with the left. Build
    // entry e is right row e, and chains keep entries in build order.
    std::vector<size_t> right_cols, left_cols;
    for (const auto& k : keys) {
      right_cols.push_back(k.right);
      left_cols.push_back(k.left);
    }
    KeyIndex build(right_rows.size());
    for (const Row& row : right_rows) build.Add(KeyHash(row, right_cols));
    *cpu += consts_.join_build_row * static_cast<double>(right_rows.size());
    aux_bytes = static_cast<double>(right.bytes);
    for (const Row& l : left_rows) {
      *cpu += consts_.join_probe_row;
      build.Find(KeyHash(l, left_cols), [&](uint32_t e) {
        const Row& r = right_rows[e];
        if (KeysEqual(l, left_cols, r, right_cols)) emit_if_match(l, r);
        return false;  // visit every candidate
      });
    }
  } else {
    // Nested loop fallback.
    *cpu += consts_.nested_loop_pair *
            static_cast<double>(left_rows.size()) *
            static_cast<double>(right_rows.size());
    for (const Row& l : left_rows) {
      for (const Row& r : right_rows) emit_if_match(l, r);
    }
  }

  const double here = static_cast<double>(out.bytes) + aux_bytes +
                      static_cast<double>(left.bytes);
  out.peak_bytes = std::max({left.peak_bytes, right.peak_bytes, here});
  return out;
}

Result<Executor::NodeResult> Executor::ExecAggregate(const PlanNode& node,
                                                     double* cpu) const {
  AV_ASSIGN_OR_RETURN(NodeResult in, Exec(*node.child(0), cpu));
  const std::vector<Row>& rows = in.rows();
  *cpu += consts_.agg_update_row * static_cast<double>(rows.size());

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
  for (const Row& row : rows) {
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
  }

  // Global aggregate over empty input still yields one row.
  if (groups.empty() && group_by.empty()) {
    groups.push_back({Row{}, std::vector<AggState>(aggs.size())});
  }

  NodeResult out;
  out.table.columns = node.output();
  out.table.rows.reserve(groups.size());
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
    out.table.rows.push_back(std::move(row));
  }
  *cpu += consts_.agg_output_row * static_cast<double>(out.table.rows.size());

  const double here = static_cast<double>(out.bytes) * 2.0 +
                      static_cast<double>(in.bytes);
  out.peak_bytes = std::max(in.peak_bytes, here);
  return out;
}

}  // namespace autoview
