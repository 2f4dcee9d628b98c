#ifndef MTDB_STORAGE_DATABASE_H_
#define MTDB_STORAGE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/platform/mutex.h"
#include "src/storage/table.h"

namespace mtdb {

// A named collection of tables — one client application's database. Owned by
// an Engine. The internal latch protects the table map; table contents are
// protected by each Table's own latch plus the engine's lock manager.
class Database {
 public:
  // `versions_live` counts the MVCC versions of every table created here
  // (Table's constructor).
  Database(std::string name, std::atomic<int64_t>* versions_live)
      : name_(std::move(name)), versions_live_(versions_live) {}

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const std::string& name() const { return name_; }

  Status CreateTable(TableSchema schema);
  Status DropTable(const std::string& table_name);
  // Borrowed pointer, valid while the database exists (tables are never
  // destroyed except by DropTable, which callers must not race with use).
  Table* GetTable(const std::string& table_name) const;
  std::vector<std::string> TableNames() const;
  size_t table_count() const;

  // Value::ByteSize summed over every live row of every table, under each
  // table's read latch: a scan, for the SLA profiler's occasional sizing.
  size_t ApproxByteSize() const;

  // Table::SettleAll over every table; returns the versions dropped.
  size_t SettleVersions(uint64_t watermark);

 private:
  std::string name_;
  std::atomic<int64_t>* const versions_live_;
  // Untracked like Table::latch_: a leaf latch held only for map lookups.
  mutable platform::SharedMutex latch_{"storage/Database::latch", nullptr};
  // Keyed by table name within ONE database: bounded by the tenant's own
  // schema, not by the tenant count. mtdblint: allow(tenant-map)
  std::map<std::string, std::unique_ptr<Table>> tables_
      MTDB_GUARDED_BY(latch_);
};

}  // namespace mtdb

#endif  // MTDB_STORAGE_DATABASE_H_
