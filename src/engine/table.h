#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "plan/plan.h"

namespace autoview {

/// \brief One row of cells: the form in which rows enter a Database
/// (AddTable) and leave a Table (its row accessor, for tests and
/// ToString). Tables and the executor store columns, not rows.
using Row = std::vector<Value>;

/// \brief One typed column of cells.
///
/// Every cell is an 8-byte slot: an int64, a double, or a string's
/// (offset, length) in the column's character buffer. Each cell has the
/// column's type(), except in a mixed column, and only a mixed column
/// keeps a per-cell type tag. Mixed columns arise from an int cell in a
/// double column (Database::AddTable admits it) and from the int 0 that
/// MIN or MAX over no rows yields in a double or string column.
///
/// A column built from cells of another column (Gather, AppendFrom)
/// shares that column's character buffer, so it copies no string bytes;
/// the buffer lives as long as any column that uses it. Columns are not
/// modified once a Table or an operator result holds them.
class Column {
 public:
  union Slot {
    int64_t i;
    double d;
    struct {
      uint32_t offset;
      uint32_t length;
    } s;
  };

  explicit Column(ColumnType type = ColumnType::kInt64) : type_(type) {}

  /// The type of every cell that has no tag of its own.
  ColumnType type() const { return type_; }
  size_t size() const { return slots_.size(); }
  const Slot* slots() const { return slots_.data(); }
  const char* chars() const { return chars_ ? chars_->data() : nullptr; }
  /// True when some cell's type differs from type().
  bool mixed() const { return !tags_.empty(); }
  /// True when no cell is a string, so each cell's byte size is 8.
  bool numbers_only() const { return !has_strings_; }
  /// True when every cell is an int64, read as slots()[i].i.
  bool all_int64() const {
    return tags_.empty() && type_ == ColumnType::kInt64;
  }

  ColumnType TypeAt(size_t i) const {
    return tags_.empty() ? type_ : tags_[i];
  }
  CellRef cell(size_t i) const {
    CellRef c;
    c.type = TypeAt(i);
    const Slot& slot = slots_[i];
    if (c.type == ColumnType::kString) {
      c.s = std::string_view(chars_->data() + slot.s.offset, slot.s.length);
    } else if (c.type == ColumnType::kDouble) {
      c.d = slot.d;
    } else {
      c.i = slot.i;
    }
    return c;
  }
  /// Value::ByteSize() of cell i.
  uint64_t CellBytes(size_t i) const {
    return TypeAt(i) == ColumnType::kString ? slots_[i].s.length + 8 : 8;
  }
  /// Cell i as a Value (the API edge: row accessor, aggregate literals).
  Value ValueAt(size_t i) const;

  void Reserve(size_t n) { slots_.reserve(n); }
  /// Appends `v`, copying a string's bytes into this column's buffer.
  void Append(const Value& v);
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  /// Appends cell i of `src`. Every string cell of a column must come
  /// from one source column, whose buffer this column then shares.
  void AppendFrom(const Column& src, size_t i);

  /// The cells of `src` at positions[0..n), in order, sharing its buffer.
  static Column Gather(const Column& src, const uint32_t* positions,
                       size_t n);
  /// `n` copies of `v`, whose string bytes (if any) are stored once.
  static Column Repeat(const Value& v, size_t n);

 private:
  /// Appends a cell of type `type`, tagging the column on its first cell
  /// of a type other than type_.
  void Push(ColumnType type, Slot slot);

  ColumnType type_;
  bool has_strings_ = false;
  std::vector<Slot> slots_;
  std::vector<ColumnType> tags_;  ///< empty, or one per cell
  std::shared_ptr<std::string> chars_;
};

/// \brief A table's cells: one Column per header column, each with
/// size() cells. Indexing or iterating builds rows on the fly (the row
/// accessor for tests and ToString); operators read the columns.
class TableRows {
 public:
  TableRows() = default;
  TableRows(std::vector<Column> columns, size_t num_rows);

  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }
  const Column& column(size_t c) const { return columns_[c]; }

  /// Row `i`, built from its cells.
  Row operator[](size_t i) const;

  /// Iterates the rows in order, each built on dereference.
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Row;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Row;

    Iterator(const TableRows* rows, size_t i) : rows_(rows), i_(i) {}
    Row operator*() const { return (*rows_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return i_ != other.i_; }
    bool operator==(const Iterator& other) const { return i_ == other.i_; }

   private:
    const TableRows* rows_;
    size_t i_;
  };
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, num_rows_); }

 private:
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

/// \brief An in-memory table: a header of named/typed columns plus the
/// cells, stored column by column.
///
/// Used for base relations loaded into a Database, for materialized
/// views and for the Executor's results.
struct Table {
  std::vector<OutputColumn> columns;
  TableRows rows;

  /// The table of `rows` under `columns`, each row freed once its cells
  /// are stored. Every row must be as wide as the header.
  static Table FromRows(std::vector<OutputColumn> columns,
                        std::vector<Row> rows);

  size_t num_rows() const { return rows.size(); }
  size_t num_columns() const { return columns.size(); }
  const Column& column(size_t c) const { return rows.column(c); }

  /// Approximate in-memory footprint of all cell payloads: the sum of
  /// Value::ByteSize() over the cells.
  uint64_t ByteSize() const;

  /// Multi-line rendering (header + up to `max_rows` rows) for debugging.
  std::string ToString(size_t max_rows = 20) const;
};

/// Bag (multiset) equality ignoring row order. Column names and types
/// must match positionally; cells are equal when CompareCells() is 0
/// (so int 3 equals double 3.0, and 1234567.0 differs from 1234568.0).
/// Used to verify that rewrites return the rows of their base plan.
bool TablesEqualUnordered(const Table& a, const Table& b);

}  // namespace autoview
