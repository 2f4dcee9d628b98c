#ifndef MTDB_STORAGE_DUMP_H_
#define MTDB_STORAGE_DUMP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/storage/engine.h"

namespace mtdb {

// The off-the-shelf database copy tool of Section 3.2 (mysqldump in the
// paper's prototype, which writes a replayable script): copies tables under
// table-granularity read locks, and ships them in the log's own records.
//
// The crucial behaviour the correctness argument relies on: the tool obtains
// a read (S) lock on the table, copies the contents, and releases the lock at
// the end of the copy. The target installs the records through the one
// replay (WriteAheadLog::Replay), so the copied rows take the target's own
// versions and land in its log.

struct TableDump {
  TableSchema schema;
  std::vector<std::pair<Row, uint64_t>> rows;  // (values, version)
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

// Appends the dumped table to *records in the log's record encoding
// (WriteAheadLog::Encode), as a copy target replays it: a kCreateTable
// record (the schema with its indexes), then one kInsert image per row under
// the bulk pseudo-transaction 0. The target must hold db_name already.
void AppendCopyRecords(const std::string& db_name, TableDump dump,
                       std::vector<std::string>* records);

}  // namespace mtdb

#endif  // MTDB_STORAGE_DUMP_H_
