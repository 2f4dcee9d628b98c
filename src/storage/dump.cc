#include "src/storage/dump.h"

#include <chrono>
#include <thread>

namespace mtdb {

namespace {

// Snapshot of one table's rows; caller must already hold the S lock.
TableDump SnapshotTable(Engine* source, const std::string& db_name,
                        const std::string& table_name,
                        const DumpOptions& options) {
  Table* table = source->GetDatabase(db_name)->GetTable(table_name);
  TableDump dump;
  dump.schema = table->schema();
  table->VisitRange(std::nullopt, std::nullopt,
                    [&dump](const Value&, const StoredRow& stored) {
                      dump.rows.emplace_back(stored.values, stored.version);
                      return true;
                    });
  // The modelled per-row copy cost, paid after the table latch is released.
  if (options.per_row_delay_us > 0) {
    for (size_t i = 0; i < dump.rows.size(); ++i) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options.per_row_delay_us));
    }
  }
  return dump;
}

}  // namespace

Result<TableDump> DumpTable(Engine* source, const std::string& db_name,
                            const std::string& table_name,
                            uint64_t dump_txn_id, const DumpOptions& options) {
  MTDB_RETURN_IF_ERROR(source->Begin(dump_txn_id));
  Status lock_status = source->LockTableShared(dump_txn_id, db_name, table_name);
  if (!lock_status.ok()) {
    (void)source->Abort(dump_txn_id);
    return lock_status;
  }
  TableDump dump = SnapshotTable(source, db_name, table_name, options);
  MTDB_RETURN_IF_ERROR(source->Commit(dump_txn_id));
  return dump;
}

Result<DatabaseDump> DumpDatabaseCoarse(Engine* source,
                                        const std::string& db_name,
                                        uint64_t dump_txn_id,
                                        const DumpOptions& options) {
  Database* db = source->GetDatabase(db_name);
  if (db == nullptr) return Status::NotFound("database " + db_name);
  MTDB_RETURN_IF_ERROR(source->Begin(dump_txn_id));
  DatabaseDump dump;
  dump.database_name = db_name;
  // Acquire S locks on every table up front; hold them all until done.
  for (const std::string& table_name : db->TableNames()) {
    Status lock_status =
        source->LockTableShared(dump_txn_id, db_name, table_name);
    if (!lock_status.ok()) {
      (void)source->Abort(dump_txn_id);
      return lock_status;
    }
  }
  for (const std::string& table_name : db->TableNames()) {
    dump.tables.push_back(SnapshotTable(source, db_name, table_name, options));
  }
  MTDB_RETURN_IF_ERROR(source->Commit(dump_txn_id));
  return dump;
}

void AppendCopyRecords(const std::string& db_name, TableDump dump,
                       std::vector<std::string>* records) {
  WalRecord record{.type = WalRecordType::kCreateTable,
                   .database = db_name,
                   .schema = std::move(dump.schema)};
  records->push_back(WriteAheadLog::Encode(record));
  record.type = WalRecordType::kInsert;
  record.table = record.schema.name();
  const int key = record.schema.primary_key_index();
  for (auto& [row, version] : dump.rows) {
    record.primary_key = row[key];
    record.row = std::move(row);
    records->push_back(WriteAheadLog::Encode(record));
  }
}

}  // namespace mtdb
