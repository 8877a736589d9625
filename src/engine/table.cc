#include "engine/table.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"
#include "util/strings.h"

namespace autoview {

Value Column::ValueAt(size_t i) const {
  const CellRef c = cell(i);
  switch (c.type) {
    case ColumnType::kInt64:
      return Value(c.i);
    case ColumnType::kDouble:
      return Value(c.d);
    case ColumnType::kString:
      break;
  }
  return Value(std::string(c.s));
}

void Column::Push(ColumnType type, Slot slot) {
  if (type != type_ || !tags_.empty()) {
    if (tags_.empty()) tags_.assign(slots_.size(), type_);
    tags_.push_back(type);
  }
  if (type == ColumnType::kString) has_strings_ = true;
  slots_.push_back(slot);
}

void Column::AppendInt(int64_t v) {
  Slot slot;
  slot.i = v;
  Push(ColumnType::kInt64, slot);
}

void Column::AppendDouble(double v) {
  Slot slot;
  slot.d = v;
  Push(ColumnType::kDouble, slot);
}

void Column::Append(const Value& v) {
  switch (v.type()) {
    case ColumnType::kInt64:
      AppendInt(v.AsInt());
      return;
    case ColumnType::kDouble:
      AppendDouble(v.AsDouble());
      return;
    case ColumnType::kString:
      break;
  }
  // Only a column that owns its buffer appends bytes to it: another
  // column may read a shared buffer concurrently.
  if (!chars_) chars_ = std::make_shared<std::string>();
  AV_CHECK(chars_.use_count() == 1);
  const std::string& s = v.AsString();
  AV_CHECK_LE(chars_->size() + s.size(), size_t{UINT32_MAX});
  Slot slot;
  slot.s.offset = static_cast<uint32_t>(chars_->size());
  slot.s.length = static_cast<uint32_t>(s.size());
  chars_->append(s);
  Push(ColumnType::kString, slot);
}

void Column::AppendFrom(const Column& src, size_t i) {
  const ColumnType type = src.TypeAt(i);
  if (type == ColumnType::kString) {
    if (!chars_) chars_ = src.chars_;
    AV_CHECK(chars_ == src.chars_);
  }
  Push(type, src.slots_[i]);
}

Column Column::Gather(const Column& src, const uint32_t* positions,
                      size_t n) {
  Column out(src.type_);
  out.has_strings_ = src.has_strings_;
  out.chars_ = src.chars_;
  out.slots_.resize(n);
  Slot* slots = out.slots_.data();
  const Slot* from = src.slots_.data();
  for (size_t k = 0; k < n; ++k) slots[k] = from[positions[k]];
  if (src.mixed()) {
    out.tags_.resize(n);
    for (size_t k = 0; k < n; ++k) out.tags_[k] = src.tags_[positions[k]];
  }
  return out;
}

Column Column::Repeat(const Value& v, size_t n) {
  Column out(v.type());
  out.Append(v);
  out.slots_.assign(n, out.slots_[0]);
  return out;
}

TableRows::TableRows(std::vector<Column> columns, size_t num_rows)
    : columns_(std::move(columns)), num_rows_(num_rows) {
  for (const Column& column : columns_) AV_CHECK_EQ(column.size(), num_rows);
}

Row TableRows::operator[](size_t i) const {
  Row row;
  row.reserve(columns_.size());
  for (const Column& column : columns_) row.push_back(column.ValueAt(i));
  return row;
}

Table Table::FromRows(std::vector<OutputColumn> columns,
                      std::vector<Row> rows) {
  std::vector<Column> data;
  data.reserve(columns.size());
  for (const auto& col : columns) {
    data.emplace_back(col.type).Reserve(rows.size());
  }
  for (Row& row : rows) {
    AV_CHECK_EQ(row.size(), columns.size());
    for (size_t c = 0; c < row.size(); ++c) data[c].Append(row[c]);
    Row().swap(row);
  }
  Table table;
  table.columns = std::move(columns);
  table.rows = TableRows(std::move(data), rows.size());
  return table;
}

uint64_t Table::ByteSize() const {
  uint64_t total = 0;
  for (size_t c = 0; c < num_columns(); ++c) {
    const Column& col = column(c);
    if (col.numbers_only()) {
      total += 8 * col.size();
      continue;
    }
    for (size_t i = 0; i < col.size(); ++i) total += col.CellBytes(i);
  }
  return total;
}

std::string Table::ToString(size_t max_rows) const {
  std::vector<std::string> header;
  for (const auto& col : columns) {
    header.push_back(col.name + ":" + ColumnTypeName(col.type));
  }
  std::string out = Join(header, " | ") + "\n";
  for (size_t i = 0; i < num_rows() && i < max_rows; ++i) {
    std::vector<std::string> cells;
    for (const auto& cell : rows[i]) cells.push_back(cell.ToString());
    out += Join(cells, " | ") + "\n";
  }
  if (num_rows() > max_rows) {
    out += StrFormat("... (%zu rows total)\n", num_rows());
  }
  return out;
}

bool TablesEqualUnordered(const Table& a, const Table& b) {
  if (a.columns != b.columns || a.num_rows() != b.num_rows()) return false;
  // Row i of x against row j of y, cell by cell.
  const auto compare = [](const Table& x, size_t i, const Table& y,
                          size_t j) {
    for (size_t c = 0; c < x.num_columns(); ++c) {
      const int r = CompareCells(x.column(c).cell(i), y.column(c).cell(j));
      if (r != 0) return r;
    }
    return 0;
  };
  const auto sorted = [&compare](const Table& t) {
    std::vector<uint32_t> order(t.num_rows());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t i, uint32_t j) {
                       return compare(t, i, t, j) < 0;
                     });
    return order;
  };
  const std::vector<uint32_t> order_a = sorted(a);
  const std::vector<uint32_t> order_b = sorted(b);
  for (size_t k = 0; k < order_a.size(); ++k) {
    if (compare(a, order_a[k], b, order_b[k]) != 0) return false;
  }
  return true;
}

}  // namespace autoview
