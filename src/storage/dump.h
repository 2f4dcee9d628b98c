#ifndef MTDB_STORAGE_DUMP_H_
#define MTDB_STORAGE_DUMP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/storage/engine.h"

namespace mtdb {

// The off-the-shelf database copy tool of Section 3.2 (mysqldump in the
// paper's prototype): copies tables under table-granularity read locks.
//
// The crucial behaviour the correctness argument relies on: the tool obtains
// a read (S) lock on the table, copies the contents, and releases the lock at
// the end of the copy. Row versions are preserved so the new replica's
// version history lines up with the source.

struct TableDump {
  TableSchema schema;
  std::vector<std::pair<Row, uint64_t>> rows;  // (values, version)
  uint64_t max_version = 0;
};

struct DatabaseDump {
  std::string database_name;
  std::vector<TableDump> tables;
};

struct DumpOptions {
  // Artificial per-row copy cost, applied while the read lock is held. Models
  // the paper's observed ~2 minutes per 200 MB; scaled down in experiments.
  int64_t per_row_delay_us = 0;
};

// Copies a single table. Runs as its own read-only transaction `dump_txn_id`
// (must be fresh): Begin -> S lock -> snapshot -> Commit (releasing the lock).
Result<TableDump> DumpTable(Engine* source, const std::string& db_name,
                            const std::string& table_name,
                            uint64_t dump_txn_id,
                            const DumpOptions& options = {});

// Copies an entire database while holding S locks on *all* its tables for the
// whole duration (database-granularity copying — the low-concurrency variant
// compared in Figures 8/9).
Result<DatabaseDump> DumpDatabaseCoarse(Engine* source,
                                        const std::string& db_name,
                                        uint64_t dump_txn_id,
                                        const DumpOptions& options = {});

// Installs a dumped table on the target engine: creates the database if
// needed, creates the table (with its indexes), and bulk-loads the rows with
// their original versions. Fails if the table already exists on the target.
Status ApplyTableDump(Engine* target, const std::string& db_name,
                      const TableDump& dump);

}  // namespace mtdb

#endif  // MTDB_STORAGE_DUMP_H_
