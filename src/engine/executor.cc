#include "engine/executor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <string_view>
#include <type_traits>

#include "util/failpoint.h"
#include "util/logging.h"
#include "util/strings.h"

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

/// Marks in `mask` every column `expr` references (already bounds-checked).
void MarkColumns(const Expr& expr, std::vector<bool>* mask) {
  if (expr.kind() == ExprKind::kColumn) {
    (*mask)[expr.column_index()] = true;
    return;
  }
  for (const auto& child : expr.children()) MarkColumns(*child, mask);
}

/// The columns an operator reads, one per column of its input; null for a
/// column of numbers that no operator above reads (see NodeResult).
using Columns = std::vector<const Column*>;

/// Input positions of a selection loop: rows 0..n of the columns.
struct AllRows {
  uint32_t operator()(size_t k) const { return static_cast<uint32_t>(k); }
};

/// Input positions of a selection loop: the held positions pos[0..n).
struct Held {
  const uint32_t* pos;
  uint32_t operator()(size_t k) const { return pos[k]; }
};

/// Writes, in order, the positions in(0..n) for which keep(position)
/// holds to `out` (which may be the array `in` reads) and returns their
/// count.
template <typename In, typename Keep>
size_t KeepIf(In in, size_t n, uint32_t* out, Keep keep) {
  size_t m = 0;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t p = in(k);
    out[m] = p;
    m += keep(p) ? 1 : 0;
  }
  return m;
}

/// KeepIf for a comparison: keeps the positions whose three-way result
/// cmp(position) satisfies `op`.
template <typename In, typename Cmp>
size_t KeepWhere(CompareOp op, In in, size_t n, uint32_t* out, Cmp cmp) {
  switch (op) {
    case CompareOp::kEq:
      return KeepIf(in, n, out, [&](uint32_t p) { return cmp(p) == 0; });
    case CompareOp::kNe:
      return KeepIf(in, n, out, [&](uint32_t p) { return cmp(p) != 0; });
    case CompareOp::kLt:
      return KeepIf(in, n, out, [&](uint32_t p) { return cmp(p) < 0; });
    case CompareOp::kLe:
      return KeepIf(in, n, out, [&](uint32_t p) { return cmp(p) <= 0; });
    case CompareOp::kGt:
      return KeepIf(in, n, out, [&](uint32_t p) { return cmp(p) > 0; });
    case CompareOp::kGe:
      return KeepIf(in, n, out, [&](uint32_t p) { return cmp(p) >= 0; });
  }
  return 0;
}

/// Three-way comparison of two numbers or two strings of one type, as
/// CompareCells orders them (a NaN compares equal to everything).
template <typename T>
int ThreeWay(T a, T b) {
  return (a > b) - (a < b);
}

/// Removes from xs[0..n) the positions in `sub`, a subsequence of it, and
/// returns the new count. Positions within a selection are distinct.
size_t Without(uint32_t* xs, size_t n, const std::vector<uint32_t>& sub) {
  size_t m = 0;
  size_t j = 0;
  for (size_t k = 0; k < n; ++k) {
    if (j < sub.size() && xs[k] == sub[j]) {
      ++j;
    } else {
      xs[m++] = xs[k];
    }
  }
  return m;
}

/// A predicate bound once per operator to the columns it reads.
///
/// The Expr tree becomes a flat tree of nodes. A comparison of a column
/// with a literal, or of two columns, is a loop over the selection that
/// reads the columns' slots; against a literal, an unmixed int64, double
/// or string column is compared slot by slot with the literal's typed
/// value. AND narrows the selection child by child, OR and NOT combine
/// their children's selections, and a comparison of two literals is a
/// constant. Each comparison gives CompareCells' result.
class BoundPredicate {
 public:
  /// Binds the conjunction of `conjuncts` (true when there are none).
  explicit BoundPredicate(const std::vector<const Expr*>& conjuncts) {
    nodes_.emplace_back().kind = Kind::kAnd;
    for (const Expr* conjunct : conjuncts) Bind(*conjunct);
    nodes_[0].end = nodes_.size();
  }

  /// The rows among 0..rows of `cols` that satisfy the predicate, in
  /// order.
  std::vector<uint32_t> SelectAll(const Columns& cols, size_t rows) const {
    std::vector<uint32_t> out(rows);
    out.resize(Keep(0, cols, AllRows{}, rows, out.data()));
    return out;
  }

  /// Narrows `sel` to the positions whose cells satisfy the predicate,
  /// keeping their order.
  void Narrow(const Columns& cols, std::vector<uint32_t>* sel) const {
    sel->resize(Keep(0, cols, Held{sel->data()}, sel->size(), sel->data()));
  }

 private:
  enum class Kind { kAnd, kOr, kNot, kConst, kColumnLiteral, kColumns };

  struct Node {
    Kind kind = Kind::kConst;
    size_t end = 0;  ///< one past this node's subtree in nodes_
    CompareOp op = CompareOp::kEq;
    size_t a = 0;     ///< the (first) column
    size_t b = 0;     ///< kColumns: the second column
    CellRef literal;  ///< kColumnLiteral: compared as `a op literal`
    bool value = false;  ///< kConst
  };

  void Bind(const Expr& expr) {
    const size_t i = nodes_.size();
    nodes_.emplace_back();
    switch (expr.kind()) {
      case ExprKind::kAnd:
      case ExprKind::kOr:
        nodes_[i].kind =
            expr.kind() == ExprKind::kAnd ? Kind::kAnd : Kind::kOr;
        for (const auto& child : expr.children()) Bind(*child);
        break;
      case ExprKind::kNot:
        nodes_[i].kind = Kind::kNot;
        Bind(*expr.children()[0]);
        break;
      case ExprKind::kCompare:
        nodes_[i] = BindCompare(expr);
        break;
      default:
        AV_CHECK(false);  // a column or literal is not a predicate
    }
    nodes_[i].end = nodes_.size();
  }

  static Node BindCompare(const Expr& compare) {
    const Expr& l = *compare.children()[0];
    const Expr& r = *compare.children()[1];
    const bool l_col = l.kind() == ExprKind::kColumn;
    const bool r_col = r.kind() == ExprKind::kColumn;
    AV_CHECK(l_col || l.kind() == ExprKind::kLiteral);
    AV_CHECK(r_col || r.kind() == ExprKind::kLiteral);
    Node node;
    node.op = compare.compare_op();
    if (l_col && r_col) {
      node.kind = Kind::kColumns;
      node.a = l.column_index();
      node.b = r.column_index();
    } else if (l_col) {
      node.kind = Kind::kColumnLiteral;
      node.a = l.column_index();
      node.literal = r.literal().cell();
    } else if (r_col) {
      // CompareCells(lit, cell) == -CompareCells(cell, lit): flip the op.
      node.kind = Kind::kColumnLiteral;
      node.a = r.column_index();
      node.literal = l.literal().cell();
      node.op = Flip(node.op);
    } else {
      node.kind = Kind::kConst;
      node.value = CompareHolds(node.op, l.literal().Compare(r.literal()));
    }
    return node;
  }

  static CompareOp Flip(CompareOp op) {
    switch (op) {
      case CompareOp::kLt:
        return CompareOp::kGt;
      case CompareOp::kLe:
        return CompareOp::kGe;
      case CompareOp::kGt:
        return CompareOp::kLt;
      case CompareOp::kGe:
        return CompareOp::kLe;
      default:
        return op;
    }
  }

  /// Copies the input positions to `out`.
  template <typename In>
  static size_t Fill(In in, size_t n, uint32_t* out) {
    for (size_t k = 0; k < n; ++k) out[k] = in(k);
    return n;
  }

  /// Writes the input positions where node i holds to `out`, in order,
  /// and returns their count.
  template <typename In>
  size_t Keep(size_t i, const Columns& cols, In in, size_t n,
              uint32_t* out) const {
    const Node& node = nodes_[i];
    switch (node.kind) {
      case Kind::kAnd: {
        size_t c = i + 1;
        if (c == node.end) return Fill(in, n, out);
        size_t m = Keep(c, cols, in, n, out);
        for (c = nodes_[c].end; c < node.end; c = nodes_[c].end) {
          m = Keep(c, cols, Held{out}, m, out);
        }
        return m;
      }
      case Kind::kOr: {
        // Each child tests the positions no earlier child kept; the
        // result is every position but those none of them kept.
        const size_t m = Fill(in, n, out);
        std::vector<uint32_t> rest(out, out + m);
        std::vector<uint32_t> kept;
        for (size_t c = i + 1; c < node.end; c = nodes_[c].end) {
          kept = rest;
          kept.resize(Keep(c, cols, Held{kept.data()}, kept.size(),
                           kept.data()));
          rest.resize(Without(rest.data(), rest.size(), kept));
        }
        return Without(out, m, rest);
      }
      case Kind::kNot: {
        const size_t m = Fill(in, n, out);
        std::vector<uint32_t> kept(out, out + m);
        kept.resize(Keep(i + 1, cols, Held{kept.data()}, m, kept.data()));
        return Without(out, m, kept);
      }
      case Kind::kConst:
        return node.value ? Fill(in, n, out) : 0;
      case Kind::kColumns: {
        const Column& x = *cols[node.a];
        const Column& y = *cols[node.b];
        return KeepWhere(node.op, in, n, out, [&](uint32_t p) {
          return CompareCells(x.cell(p), y.cell(p));
        });
      }
      case Kind::kColumnLiteral:
        return KeepLiteral(node, *cols[node.a], in, n, out);
    }
    return 0;
  }

  template <typename In>
  static size_t KeepLiteral(const Node& node, const Column& col, In in,
                            size_t n, uint32_t* out) {
    const CellRef& lit = node.literal;
    const Column::Slot* slots = col.slots();
    // Numbers order before strings.
    const auto constant = [](int c) { return [c](uint32_t) { return c; }; };
    if (!col.mixed()) {
      switch (col.type()) {
        case ColumnType::kInt64:
          if (lit.type == ColumnType::kInt64) {
            return KeepWhere(node.op, in, n, out, [slots, v = lit.i](
                                                      uint32_t p) {
              return ThreeWay(slots[p].i, v);
            });
          }
          if (lit.type == ColumnType::kDouble) {
            return KeepWhere(node.op, in, n, out, [slots, v = lit.d](
                                                      uint32_t p) {
              return ThreeWay(static_cast<double>(slots[p].i), v);
            });
          }
          return KeepWhere(node.op, in, n, out, constant(-1));
        case ColumnType::kDouble:
          if (!lit.is_string()) {
            return KeepWhere(node.op, in, n, out,
                             [slots, v = lit.AsDouble()](uint32_t p) {
                               return ThreeWay(slots[p].d, v);
                             });
          }
          return KeepWhere(node.op, in, n, out, constant(-1));
        case ColumnType::kString:
          if (lit.is_string()) {
            return KeepWhere(node.op, in, n, out,
                             [slots, chars = col.chars(), v = lit.s](
                                 uint32_t p) {
                               return ThreeWay(
                                   std::string_view(chars + slots[p].s.offset,
                                                    slots[p].s.length),
                                   v);
                             });
          }
          return KeepWhere(node.op, in, n, out, constant(1));
      }
    }
    return KeepWhere(node.op, in, n, out, [&col, &lit](uint32_t p) {
      return CompareCells(col.cell(p), lit);
    });
  }

  std::vector<Node> nodes_;  ///< pre-order; node 0 is the conjunction
};

/// Composite hash of the cells `cols` of row p. HashCell() hashes equal
/// cells alike (int 3 and double 3.0 included), so rows whose key cells
/// compare equal pairwise hash alike.
uint64_t KeyHash(const Columns& data, const std::vector<size_t>& cols,
                 uint32_t p) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t c : cols) {
    const Column& col = *data[c];
    // splitmix64 finalizer: spreads the identity hash of small ints over
    // the low bits the bucket mask keeps.
    h += col.all_int64() ? HashInt(col.slots()[p].i) : HashCell(col.cell(p));
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
  }
  return h;
}

/// True when cell a_cols[i] of row p of `a` compares equal to cell
/// b_cols[i] of row q of `b` for every i (the equality filters use).
bool KeysEqual(const Columns& a, const std::vector<size_t>& a_cols,
               uint32_t p, const Columns& b,
               const std::vector<size_t>& b_cols, uint32_t q) {
  for (size_t i = 0; i < a_cols.size(); ++i) {
    const Column& x = *a[a_cols[i]];
    const Column& y = *b[b_cols[i]];
    if (x.all_int64() && y.all_int64()) {
      if (x.slots()[p].i != y.slots()[q].i) return false;
    } else if (CompareCells(x.cell(p), y.cell(q)) != 0) {
      return false;
    }
  }
  return true;
}

/// A chained hash index over entries numbered 0, 1, 2, ... in order of
/// Add(): join build rows, aggregate groups or distinct rows. The caller
/// owns the entries and decides equality; the index keeps each entry's
/// hash, so most chain mismatches are rejected without comparing cells.
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

/// No row: a MIN or MAX that has seen no input yet.
constexpr uint32_t kNoRow = UINT32_MAX;

/// Calls f(read), where read(p) is cell p of `col`: an int64_t, double
/// or std::string_view when every cell has the column's type, else a
/// CellRef.
template <typename F>
void WithCells(const Column& col, F&& f) {
  const Column::Slot* slots = col.slots();
  if (!col.mixed()) {
    switch (col.type()) {
      case ColumnType::kInt64:
        return f([slots](uint32_t p) { return slots[p].i; });
      case ColumnType::kDouble:
        return f([slots](uint32_t p) { return slots[p].d; });
      case ColumnType::kString:
        return f([slots, chars = col.chars()](uint32_t p) {
          return std::string_view(chars + slots[p].s.offset,
                                  slots[p].s.length);
        });
    }
  }
  f([&col](uint32_t p) { return col.cell(p); });
}

/// CompareCells of two cells read by WithCells.
template <typename T>
int CompareRead(const T& a, const T& b) {
  if constexpr (std::is_same_v<T, CellRef>) {
    return CompareCells(a, b);
  } else {
    return ThreeWay(a, b);
  }
}

/// One aggregate item's running state for one group.
struct AggState {
  int64_t sum_int = 0;
  double sum_double = 0.0;
  uint32_t best = kNoRow;  ///< MIN/MAX: the first row holding the extreme
};

/// Stops a join's residual test from buffering more candidate pairs than
/// this before it runs.
constexpr size_t kResidualChunk = 4096;

}  // namespace

/// One operator's output: its header, its columns and the rows it holds.
///
/// The header is a plan node's output or a scanned table's columns; both
/// outlive the execution. Each column is either a stored table's (valid
/// for the whole plan: base tables are never dropped and served views are
/// pinned) or one the result owns, made by a join or an aggregate below
/// and passed up with the result. A join leaves null the columns of
/// numbers that no operator above reads; their cells are 8 bytes each.
/// The selection, when present, holds the positions of the held rows in
/// the columns, in output order; when absent, the result holds rows
/// 0..rows in order.
struct Executor::NodeResult {
  const std::vector<OutputColumn>* columns = nullptr;
  Columns data;
  std::vector<std::unique_ptr<Column>> owned;
  size_t rows = 0;  ///< the size of each column in `data`
  std::optional<std::vector<uint32_t>> selection;
  uint64_t bytes = 0;  ///< sum of Value::ByteSize() over the held cells
  double peak_bytes = 0.0;

  size_t width() const { return columns->size(); }
  size_t size() const { return selection ? selection->size() : rows; }

  /// Calls f(position) for each held row, in order.
  template <typename F>
  void ForEach(F&& f) const {
    if (selection) {
      for (uint32_t p : *selection) f(p);
    } else {
      for (size_t p = 0; p < rows; ++p) f(static_cast<uint32_t>(p));
    }
  }

  /// The held positions, in order, as a selection.
  std::vector<uint32_t> TakeSelection() && {
    if (selection) return std::move(*selection);
    std::vector<uint32_t> all(rows);
    std::iota(all.begin(), all.end(), 0);
    return all;
  }

  /// Takes ownership of `column` and returns it.
  const Column* Own(Column column) {
    owned.push_back(std::make_unique<Column>(std::move(column)));
    return owned.back().get();
  }

  /// Sum of Value::ByteSize() over the held rows' cells.
  uint64_t HeldBytes() const {
    uint64_t total = 0;
    for (const Column* column : data) {
      if (column == nullptr || column->numbers_only()) {
        total += 8 * size();
      } else {
        ForEach([&](uint32_t p) { total += column->CellBytes(p); });
      }
    }
    return total;
  }

  /// The held rows as a table that owns its cells (string bytes shared
  /// with the columns they came from).
  Table ToTable() && {
    std::vector<Column> cells;
    cells.reserve(data.size());
    for (const Column* column : data) {
      AV_CHECK(column != nullptr);
      cells.push_back(selection ? Column::Gather(*column, selection->data(),
                                                 selection->size())
                                : *column);
    }
    Table table;
    table.columns = *columns;
    table.rows = TableRows(std::move(cells), size());
    return table;
  }
};

Result<ExecResult> Executor::Execute(const PlanNode& plan) const {
  double cpu = 0.0;
  AV_ASSIGN_OR_RETURN(NodeResult root,
                      Exec(plan, ColumnMask(plan.output().size(), true), &cpu));
  ExecResult result;
  result.cost = Report(root, cpu);
  result.table = std::move(root).ToTable();
  return result;
}

Result<CostReport> Executor::ExecuteForCost(const PlanNode& plan) const {
  double cpu = 0.0;
  AV_ASSIGN_OR_RETURN(
      NodeResult root,
      Exec(plan, ColumnMask(plan.output().size(), false), &cpu));
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
                                            const ColumnMask& needed,
                                            double* cpu) const {
  switch (node.op()) {
    case PlanOp::kTableScan:
      return ExecScan(node, cpu);
    case PlanOp::kFilter:
      return ExecFilter(node, needed, cpu);
    case PlanOp::kProject:
      return ExecProject(node, needed, cpu);
    case PlanOp::kJoin:
      return ExecJoin(node, needed, cpu);
    case PlanOp::kAggregate:
      return ExecAggregate(node, cpu);
    case PlanOp::kSort:
      return ExecSort(node, cpu);
    case PlanOp::kLimit:
      return ExecLimit(node, needed, cpu);
    case PlanOp::kDistinct:
      return ExecDistinct(node, cpu);
  }
  return Status::Internal("unknown plan operator");
}

Result<Executor::NodeResult> Executor::ExecSort(const PlanNode& node,
                                                double* cpu) const {
  const PlanNode& child = *node.child(0);
  // The tie-break reads every column.
  AV_ASSIGN_OR_RETURN(
      NodeResult out, Exec(child, ColumnMask(child.output().size(), true), cpu));
  const double n = static_cast<double>(out.size());
  *cpu += consts_.sort_row * n * std::log2(n + 2.0);
  const auto& keys = node.sort_keys();
  const Columns& data = out.data;
  std::vector<uint32_t> order = std::move(out).TakeSelection();
  std::stable_sort(order.begin(), order.end(),
                   [&keys, &data](uint32_t a, uint32_t b) {
                     for (const auto& key : keys) {
                       const Column& col = *data[key.column];
                       const int c = CompareCells(col.cell(a), col.cell(b));
                       if (c != 0) return key.descending ? c > 0 : c < 0;
                     }
                     // Full-row tie-break keeps the order independent of
                     // the input order (so LIMIT results survive plan
                     // rewrites).
                     for (const Column* col : data) {
                       const int c = CompareCells(col->cell(a), col->cell(b));
                       if (c != 0) return c < 0;
                     }
                     return false;
                   });
  out.selection = std::move(order);
  out.peak_bytes =
      std::max(out.peak_bytes, static_cast<double>(out.bytes) * 2);
  return out;
}

Result<Executor::NodeResult> Executor::ExecLimit(const PlanNode& node,
                                                 const ColumnMask& needed,
                                                 double* cpu) const {
  AV_ASSIGN_OR_RETURN(NodeResult out, Exec(*node.child(0), needed, cpu));
  const size_t n = static_cast<size_t>(node.limit());
  if (out.size() > n) {
    std::vector<uint32_t> kept = std::move(out).TakeSelection();
    kept.resize(n);
    out.selection = std::move(kept);
    out.bytes = out.HeldBytes();
  }
  *cpu += consts_.limit_row * static_cast<double>(out.size());
  return out;
}

Result<Executor::NodeResult> Executor::ExecDistinct(const PlanNode& node,
                                                    double* cpu) const {
  const PlanNode& child = *node.child(0);
  const size_t width = child.output().size();
  AV_ASSIGN_OR_RETURN(NodeResult out,
                      Exec(child, ColumnMask(width, true), cpu));
  *cpu += consts_.distinct_row * static_cast<double>(out.size());
  std::vector<size_t> all_cols(width);
  std::iota(all_cols.begin(), all_cols.end(), 0);
  const Columns& data = out.data;
  std::vector<uint32_t> kept;
  KeyIndex seen(out.size());
  out.ForEach([&](uint32_t p) {
    const uint64_t h = KeyHash(data, all_cols, p);
    const auto same = [&](uint32_t e) {
      return KeysEqual(data, all_cols, kept[e], data, all_cols, p);
    };
    if (seen.Find(h, same) != KeyIndex::kNone) return;
    seen.Add(h);
    kept.push_back(p);
  });
  const uint64_t in_bytes = out.bytes;
  out.columns = &node.output();
  out.selection = std::move(kept);
  out.bytes = out.HeldBytes();
  // The kept rows plus only the duplicate input rows: the input is
  // measured as if the kept rows had been moved out of it. This is part
  // of the pinned cost contract; counting the whole input would change
  // peak_bytes and, through SpillMultiplier, cpu_units.
  const double here = static_cast<double>(out.bytes) +
                      static_cast<double>(in_bytes - out.bytes);
  out.peak_bytes = std::max(out.peak_bytes, here);
  return out;
}

Result<Executor::NodeResult> Executor::ExecScan(const PlanNode& node,
                                                double* cpu) const {
  AV_FAILPOINT_STATUS("executor.scan");
  NodeResult out;
  const Table* table = nullptr;
  AV_ASSIGN_OR_RETURN(table, db_->GetTable(node.table(), &out.bytes));
  if (table->num_columns() != node.output().size()) {
    return Status::InvalidArgument(StrFormat(
        "table %s has %zu columns; the plan scans %zu", node.table().c_str(),
        table->num_columns(), node.output().size()));
  }
  out.columns = &table->columns;
  out.rows = table->num_rows();
  out.data.reserve(table->num_columns());
  for (size_t c = 0; c < table->num_columns(); ++c) {
    out.data.push_back(&table->column(c));
  }
  *cpu += consts_.scan_row * static_cast<double>(out.size());
  out.peak_bytes = static_cast<double>(out.bytes);
  return out;
}

Result<Executor::NodeResult> Executor::ExecFilter(const PlanNode& node,
                                                  const ColumnMask& needed,
                                                  double* cpu) const {
  const Expr& predicate = *node.predicate();
  AV_RETURN_NOT_OK(
      CheckColumnBounds(predicate, node.child(0)->output().size()));
  ColumnMask read = needed;
  MarkColumns(predicate, &read);
  AV_ASSIGN_OR_RETURN(NodeResult out, Exec(*node.child(0), read, cpu));
  *cpu += consts_.filter_row * static_cast<double>(out.size());
  const BoundPredicate bound({&predicate});
  if (out.selection) {
    bound.Narrow(out.data, &*out.selection);
  } else {
    out.selection = bound.SelectAll(out.data, out.rows);
  }
  out.columns = &node.output();
  out.bytes = out.HeldBytes();
  out.peak_bytes = std::max(out.peak_bytes, static_cast<double>(out.bytes));
  return out;
}

Result<Executor::NodeResult> Executor::ExecProject(const PlanNode& node,
                                                   const ColumnMask& needed,
                                                   double* cpu) const {
  const PlanNode& child = *node.child(0);
  const auto& items = node.projections();
  ColumnMask read(child.output().size(), false);
  for (size_t j = 0; j < items.size(); ++j) {
    AV_RETURN_NOT_OK(CheckColumnBounds(*items[j].expr, read.size()));
    if (needed[j]) MarkColumns(*items[j].expr, &read);
  }
  AV_ASSIGN_OR_RETURN(NodeResult in, Exec(child, read, cpu));
  *cpu += consts_.project_row * static_cast<double>(in.size());
  NodeResult out;
  out.columns = &node.output();
  out.rows = in.rows;
  out.selection = std::move(in.selection);
  out.owned = std::move(in.owned);
  out.data.reserve(items.size());
  for (const auto& item : items) {
    if (item.expr->kind() == ExprKind::kColumn) {
      out.data.push_back(in.data[item.expr->column_index()]);
    } else {
      AV_CHECK(item.expr->kind() == ExprKind::kLiteral);
      out.data.push_back(
          out.Own(Column::Repeat(item.expr->literal(), out.rows)));
    }
  }
  out.bytes = out.HeldBytes();
  out.peak_bytes = std::max(in.peak_bytes, static_cast<double>(out.bytes));
  return out;
}

Result<Executor::NodeResult> Executor::ExecJoin(const PlanNode& node,
                                                const ColumnMask& needed,
                                                double* cpu) const {
  const size_t left_width = node.child(0)->output().size();
  const size_t width = left_width + node.child(1)->output().size();
  const Expr& condition = *node.join_condition();
  AV_RETURN_NOT_OK(CheckColumnBounds(condition, width));

  std::vector<EquiKey> keys;
  std::vector<const Expr*> residual;
  SplitJoinCondition(condition, left_width, &keys, &residual);
  ColumnMask tested(width, false);  // the columns the residual reads
  for (const Expr* conjunct : residual) MarkColumns(*conjunct, &tested);
  ColumnMask read = needed;
  for (size_t c = 0; c < width; ++c) read[c] = read[c] || tested[c];
  for (const auto& k : keys) {
    read[k.left] = true;
    read[left_width + k.right] = true;
  }
  AV_ASSIGN_OR_RETURN(
      NodeResult left,
      Exec(*node.child(0),
           ColumnMask(read.begin(), read.begin() + left_width), cpu));
  AV_ASSIGN_OR_RETURN(
      NodeResult right,
      Exec(*node.child(1),
           ColumnMask(read.begin() + left_width, read.end()), cpu));
  const auto source = [&](size_t c) {
    return c < left_width ? left.data[c] : right.data[c - left_width];
  };

  // The joined rows as (left position, right position) pairs, left-major.
  std::vector<uint32_t> left_pos;
  std::vector<uint32_t> right_pos;
  const BoundPredicate predicate(residual);
  Columns pair_cols(width, nullptr);
  std::vector<Column> pair_cells;
  size_t tested_pairs = 0;  // pairs [0, tested_pairs) passed the residual
  // Drops the pairs past tested_pairs that fail the residual.
  const auto test_residual = [&] {
    const size_t n = left_pos.size() - tested_pairs;
    if (!residual.empty() && n > 0) {
      pair_cells.clear();
      pair_cells.reserve(width);
      for (size_t c = 0; c < width; ++c) {
        if (!tested[c]) continue;
        const auto& pos = c < left_width ? left_pos : right_pos;
        pair_cells.push_back(
            Column::Gather(*source(c), pos.data() + tested_pairs, n));
        pair_cols[c] = &pair_cells.back();
      }
      const std::vector<uint32_t> pass = predicate.SelectAll(pair_cols, n);
      for (size_t k = 0; k < pass.size(); ++k) {
        left_pos[tested_pairs + k] = left_pos[tested_pairs + pass[k]];
        right_pos[tested_pairs + k] = right_pos[tested_pairs + pass[k]];
      }
      left_pos.resize(tested_pairs + pass.size());
      right_pos.resize(tested_pairs + pass.size());
    }
    tested_pairs = left_pos.size();
  };
  const auto emit = [&](uint32_t l, uint32_t r) {
    left_pos.push_back(l);
    right_pos.push_back(r);
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
    std::vector<uint32_t> build_rows;
    build_rows.reserve(right.size());
    right.ForEach([&](uint32_t r) {
      build.Add(KeyHash(right.data, right_cols, r));
      build_rows.push_back(r);
    });
    *cpu += consts_.join_build_row * static_cast<double>(right.size());
    aux_bytes = static_cast<double>(right.bytes);
    left.ForEach([&](uint32_t l) {
      build.Find(KeyHash(left.data, left_cols, l), [&](uint32_t e) {
        const uint32_t r = build_rows[e];
        if (KeysEqual(left.data, left_cols, l, right.data, right_cols, r)) {
          emit(l, r);
        }
        return false;  // visit every candidate
      });
      if (left_pos.size() - tested_pairs >= kResidualChunk) test_residual();
    });
    test_residual();
    // Charged as a row-at-a-time join adds them: each probe, then each
    // of that probe's output rows.
    size_t k = 0;
    left.ForEach([&](uint32_t l) {
      *cpu += consts_.join_probe_row;
      for (; k < left_pos.size() && left_pos[k] == l; ++k) {
        *cpu += consts_.join_output_row;
      }
    });
  } else {
    // Nested loop fallback.
    *cpu += consts_.nested_loop_pair * static_cast<double>(left.size()) *
            static_cast<double>(right.size());
    left.ForEach([&](uint32_t l) {
      right.ForEach([&](uint32_t r) { emit(l, r); });
      if (left_pos.size() - tested_pairs >= kResidualChunk) test_residual();
    });
    test_residual();
    for (size_t k = 0; k < left_pos.size(); ++k) {
      *cpu += consts_.join_output_row;
    }
  }

  NodeResult out;
  out.columns = &node.output();
  out.rows = left_pos.size();
  out.data.assign(width, nullptr);
  for (size_t c = 0; c < width; ++c) {
    const Column* src = source(c);
    // A column of numbers that nothing above reads adds 8 bytes a row
    // whether or not it is gathered.
    if (src == nullptr || (!needed[c] && src->numbers_only())) continue;
    const auto& pos = c < left_width ? left_pos : right_pos;
    out.data[c] = out.Own(Column::Gather(*src, pos.data(), pos.size()));
  }
  out.bytes = out.HeldBytes();
  const double here = static_cast<double>(out.bytes) + aux_bytes +
                      static_cast<double>(left.bytes);
  out.peak_bytes = std::max({left.peak_bytes, right.peak_bytes, here});
  return out;
}

Result<Executor::NodeResult> Executor::ExecAggregate(const PlanNode& node,
                                                     double* cpu) const {
  const PlanNode& child = *node.child(0);
  const auto& group_by = node.group_by();
  const auto& aggs = node.aggregates();
  ColumnMask read(child.output().size(), false);
  for (size_t g : group_by) read[g] = true;
  for (const auto& agg : aggs) {
    if (agg.input_column) read[*agg.input_column] = true;
  }
  AV_ASSIGN_OR_RETURN(NodeResult in, Exec(child, read, cpu));
  *cpu += consts_.agg_update_row * static_cast<double>(in.size());

  // Groups in first-seen order, each named by its first row; group_of[k]
  // is the group of the k-th held row. Without GROUP BY there is one
  // group, even over no rows, and group_of stays empty.
  std::vector<uint32_t> first;
  std::vector<uint32_t> group_of;
  if (group_by.empty()) {
    first.push_back(kNoRow);
  } else {
    group_of.reserve(in.size());
    KeyIndex index(16);
    in.ForEach([&](uint32_t p) {
      const uint64_t h = KeyHash(in.data, group_by, p);
      uint32_t g = index.Find(h, [&](uint32_t e) {
        return KeysEqual(in.data, group_by, p, in.data, group_by, first[e]);
      });
      if (g == KeyIndex::kNone) {
        g = index.Add(h);
        first.push_back(p);
      }
      group_of.push_back(g);
    });
  }
  const size_t groups = first.size();
  // Calls f(group, position) for each held row, in order.
  const auto for_each_grouped = [&](auto&& f) {
    if (group_by.empty()) {
      in.ForEach([&](uint32_t p) { f(0, p); });
    } else {
      size_t k = 0;
      in.ForEach([&](uint32_t p) { f(group_of[k++], p); });
    }
  };
  std::vector<int64_t> count(groups, 0);
  if (group_by.empty()) {
    count[0] = static_cast<int64_t>(in.size());
  } else {
    for (uint32_t g : group_of) ++count[g];
  }

  NodeResult out;
  out.columns = &node.output();
  out.rows = groups;
  out.data.reserve(node.output().size());
  for (size_t g : group_by) {
    out.data.push_back(
        out.Own(Column::Gather(*in.data[g], first.data(), groups)));
  }
  // Each aggregate is one pass over the held rows, typed by its column;
  // a group's rows are visited in input order, as a row at a time would.
  std::vector<AggState> states;
  for (size_t a = 0; a < aggs.size(); ++a) {
    const AggKind kind = aggs[a].kind;
    const ColumnType out_type = node.output()[group_by.size() + a].type;
    Column column(out_type);
    column.Reserve(groups);
    if (kind == AggKind::kCountStar || kind == AggKind::kCount) {
      for (int64_t n : count) column.AppendInt(n);
      out.data.push_back(out.Own(std::move(column)));
      continue;
    }
    const Column& input = *in.data[*aggs[a].input_column];
    states.assign(groups, AggState{});
    WithCells(input, [&](auto read) {
      using Cell = decltype(read(0));
      if (kind == AggKind::kMin || kind == AggKind::kMax) {
        const bool max = kind == AggKind::kMax;
        for_each_grouped([&](uint32_t g, uint32_t p) {
          uint32_t& best = states[g].best;
          if (best == kNoRow ||
              (max ? CompareRead(read(best), read(p))
                   : CompareRead(read(p), read(best))) < 0) {
            best = p;
          }
        });
      } else if constexpr (!std::is_same_v<Cell, std::string_view>) {
        // SUM/AVG (MakeAggregate rejects them over string columns).
        for_each_grouped([&](uint32_t g, uint32_t p) {
          const Cell v = read(p);
          if constexpr (std::is_same_v<Cell, int64_t>) {
            states[g].sum_int += v;
            states[g].sum_double += static_cast<double>(v);
          } else if constexpr (std::is_same_v<Cell, double>) {
            states[g].sum_double += v;
          } else {
            if (v.type == ColumnType::kInt64) states[g].sum_int += v.i;
            states[g].sum_double += v.AsDouble();
          }
        });
      }
    });
    for (size_t g = 0; g < groups; ++g) {
      const AggState& st = states[g];
      switch (kind) {
        case AggKind::kSum:
          if (out_type == ColumnType::kInt64) {
            column.AppendInt(st.sum_int);
          } else {
            column.AppendDouble(st.sum_double);
          }
          break;
        case AggKind::kAvg:
          column.AppendDouble(
              count[g] ? st.sum_double / static_cast<double>(count[g]) : 0.0);
          break;
        case AggKind::kMin:
        case AggKind::kMax:
          if (st.best == kNoRow) {
            column.AppendInt(0);
          } else {
            column.AppendFrom(input, st.best);
          }
          break;
        default:
          break;
      }
    }
    out.data.push_back(out.Own(std::move(column)));
  }
  out.bytes = out.HeldBytes();
  *cpu += consts_.agg_output_row * static_cast<double>(groups);

  const double here = static_cast<double>(out.bytes) * 2.0 +
                      static_cast<double>(in.bytes);
  out.peak_bytes = std::max(in.peak_bytes, here);
  return out;
}

}  // namespace autoview
