#pragma once

#include <map>
#include <string>

#include "catalog/catalog.h"
#include "engine/table.h"
#include "util/annotations.h"
#include "util/status.h"

namespace autoview {

/// \brief A catalog plus the actual table data it describes.
///
/// Thread safety: all methods are individually thread-safe, so view
/// builds can execute (scanning base tables) while another thread
/// installs or evicts a view. A GetTable() pointer is a stable map node:
/// it remains valid until DropTable() of that same table. Base tables
/// are never dropped; view tables are dropped only by the view store,
/// whose pin protocol guarantees a served table outlives its readers.
class Database {
 public:
  /// Registers schema + rows. Row cell types must match the schema.
  Status AddTable(TableSchema schema, std::vector<Row> rows)
      AV_EXCLUDES(mu_);

  /// Registers an already-materialized result under `name` (used to
  /// install materialized views so rewritten plans can scan them).
  Status AddMaterialized(const std::string& name, Table table)
      AV_EXCLUDES(mu_);

  /// Removes a table (views being dropped).
  Status DropTable(const std::string& name) AV_EXCLUDES(mu_);

  const Catalog& catalog() const { return catalog_; }

  /// True when `name` is currently registered (base table or view).
  bool HasTable(const std::string& name) const {
    return catalog_.HasTable(name);
  }

  /// The stored table. `*byte_size` (optional) gets its ByteSize(),
  /// recorded once at registration: tables never change once added.
  Result<const Table*> GetTable(const std::string& name,
                                uint64_t* byte_size = nullptr) const
      AV_EXCLUDES(mu_);

  /// Recomputes TableStats (row/byte counts, distincts, min/max,
  /// equi-width histograms with `buckets` buckets) for every table.
  Status ComputeAllStats(size_t buckets = 32) AV_EXCLUDES(mu_);

  /// Stats for a single table.
  Status ComputeStats(const std::string& name, size_t buckets = 32)
      AV_EXCLUDES(mu_);

  std::vector<std::string> TableNames() const { return catalog_.TableNames(); }

 private:
  struct StoredTable {
    Table table;
    uint64_t byte_size = 0;  ///< table.ByteSize()
  };

  /// Registers `table` under `name` with its byte size.
  void Store(const std::string& name, Table table) AV_EXCLUDES(mu_);

  Catalog catalog_;  // internally synchronized
  mutable Mutex mu_;
  std::map<std::string, StoredTable> tables_ AV_GUARDED_BY(mu_);
};

}  // namespace autoview
