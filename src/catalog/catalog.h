#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "util/annotations.h"
#include "util/status.h"

namespace autoview {

/// \brief The metadata database of Fig. 3: table schemas and statistics.
///
/// The catalog is consulted by the parser/planner (name resolution), the
/// traditional cost estimator (statistics), and the cost-model feature
/// extractor (schema keywords + numerical features).
///
/// Thread safety: all methods are individually thread-safe (internally
/// locked), so the rewriter's view-table lookups can race view-store
/// installs and evictions. Lookups are hash finds keyed by string_view
/// (no key copy). Returned pointers/references are stable hash-map
/// nodes (a rehash moves no node): a GetTable() schema stays valid until
/// RemoveTable() of that same table, and a GetStats() reference until
/// the next SetStats() for it — base tables are never removed, and the
/// view store's pin protocol keeps served view tables registered, so
/// readers of either never dangle. GetColumns() returns a shared
/// reference to the immutable column list for readers that hold no
/// pin. The object itself is neither movable nor copyable.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Registers a table. Fails with AlreadyExists on duplicate names.
  Status AddTable(TableSchema schema) AV_EXCLUDES(mu_);

  /// Unregisters a table and its statistics (view retirement; base
  /// tables are never removed). Fails with NotFound.
  Status RemoveTable(const std::string& table) AV_EXCLUDES(mu_);

  /// Replaces (or installs) the statistics for `table`.
  Status SetStats(const std::string& table, TableStats stats)
      AV_EXCLUDES(mu_);

  /// Looks up a schema by table name.
  Result<const TableSchema*> GetTable(std::string_view table) const
      AV_EXCLUDES(mu_);

  /// Looks up statistics; returns zeroed defaults if never set.
  const TableStats& GetStats(std::string_view table) const
      AV_EXCLUDES(mu_);

  /// A table's columns, shared under the lock: unlike a GetTable()
  /// pointer the list survives a concurrent RemoveTable(), so a scan of
  /// an unpinned view table can be built while the view is evicted.
  Result<SharedColumns> GetColumns(std::string_view table) const
      AV_EXCLUDES(mu_);

  bool HasTable(std::string_view table) const AV_EXCLUDES(mu_);

  size_t num_tables() const AV_EXCLUDES(mu_);

  /// Sorted list of table names.
  std::vector<std::string> TableNames() const AV_EXCLUDES(mu_);

 private:
  /// Transparent hash, so string_view lookups need no std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  template <typename V>
  using NameMap =
      std::unordered_map<std::string, V, NameHash, std::equal_to<>>;

  mutable Mutex mu_;
  NameMap<TableSchema> tables_ AV_GUARDED_BY(mu_);
  NameMap<TableStats> stats_ AV_GUARDED_BY(mu_);
  const TableStats empty_stats_;  // immutable: safe to hand out unlocked
};

}  // namespace autoview
