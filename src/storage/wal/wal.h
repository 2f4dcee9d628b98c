#ifndef MTDB_STORAGE_WAL_WAL_H_
#define MTDB_STORAGE_WAL_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/storage/schema.h"
#include "src/storage/value.h"
#include "src/storage/wal/log_writer.h"

namespace mtdb {

class Engine;

// Record kinds in the redo log.
enum class WalRecordType {
  kCreateDatabase,
  kCreateTable,
  kCreateIndex,
  kInsert,
  kUpdate,
  kDelete,
  kPrepare,
  kCommit,
  kAbort,
};

// One parsed log record. Field usage depends on the type.
struct WalRecord {
  WalRecordType type;
  uint64_t txn_id = 0;       // row ops, prepare, commit, abort
  std::string database;
  std::string table;         // also index target
  std::string aux;           // index name / serialized schema
  Value primary_key;
  Row row;                   // after-image for insert/update
};

// A redo-only write-ahead log, line-oriented and human-greppable. The engine
// appends row after-images as statements execute and a COMMIT record at
// transaction commit; recovery replays the redo of committed transactions in
// log order, discarding losers. (The in-memory tables are the volatile
// buffer; this log is the persistent copy — a no-steal/redo-only regime, so
// no undo is ever needed at recovery time.)
//
// Durability runs through the wal::LogWriter group-commit pipeline
// (log_writer.h): appends enqueue onto a bounded queue and return an LSN, a
// dedicated log thread coalesces queued records into one write+sync, and
// AwaitDurable(lsn) releases committers in LSN order. The on-disk format is
// unchanged — one escaped line per record — so ReadAll/Recover and the
// dump/copy machinery read logs from either era.
//
// Thread-safe: concurrent appends are serialized by the pipeline's queue;
// record order in the file is LSN order.
class WriteAheadLog {
 public:
  using Options = wal::LogWriterOptions;

  // Opens (appending) or creates the log file and starts the log thread.
  static Result<std::unique_ptr<WriteAheadLog>> Open(const std::string& path,
                                                     Options options = {});
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  const std::string& path() const { return writer_->path(); }
  const Options& options() const { return writer_->options(); }

  // DDL is rare and structural: appended and synced before returning,
  // regardless of policy.
  Status AppendDdl(WalRecordType type, const std::string& database,
                   const std::string& table, const std::string& aux);
  // Row after-images are enqueued without waiting; the decision record that
  // follows them (same LSN order) carries their durability.
  Status AppendRowOp(WalRecordType type, uint64_t txn_id,
                     const std::string& database, const std::string& table,
                     const Value& primary_key, const Row& row);

  // Enqueues a PREPARE/COMMIT/ABORT record and returns its LSN without
  // waiting — the caller decides when (and whether) to AwaitDurable, which
  // is what lets Engine::Commit release locks before blocking on the sync.
  Result<uint64_t> AppendDecisionAsync(WalRecordType type, uint64_t txn_id);
  // Blocks until `lsn` (and everything before it) is durable under the
  // configured policy.
  Status AwaitDurable(uint64_t lsn);

  // Full durability barrier: everything appended so far is written+synced.
  Status Sync();

  int64_t records_written() const { return writer_->records_appended(); }

  // The underlying pipeline (sync counters, crash injection for tests).
  wal::LogWriter* writer() { return writer_.get(); }

  // Reads every well-formed record of a log file (a torn final line — the
  // classic crash artifact — is ignored).
  static Result<std::vector<WalRecord>> ReadAll(const std::string& path);

  // Live-migration delta read (LSN = 1-based line number; the LogWriter
  // appends exactly one line per record, so file order is LSN order).
  // Returns, in log order, the raw lines a migration target must replay to
  // catch `database` up past the `after_lsn` frontier:
  //   * DDL lines for the database with LSN > after_lsn, and
  //   * row-op lines of transactions whose COMMIT record has LSN >
  //     after_lsn — the op lines themselves may be older (a transaction
  //     in flight when the previous round read the log), which is why the
  //     filter keys on the decision LSN, not the op LSN. Bulk-load lines
  //     (pseudo-transaction 0, implicitly committed) key on their own LSN.
  // Aborted and still-undecided transactions are excluded, so the returned
  // lines are unconditionally applicable on the target. `frontier` receives
  // the LSN of the last complete line; passing it back as the next round's
  // after_lsn yields disjoint, gap-free rounds. Callers must Sync() the
  // live log first so enqueued records have reached the file.
  static Result<std::vector<std::string>> ReadCommittedDeltaSince(
      const std::string& path, const std::string& database,
      uint64_t after_lsn, uint64_t* frontier);

  // Parses raw delta lines (as returned by ReadCommittedDeltaSince) back
  // into records; malformed lines are skipped, like ReadAll.
  static std::vector<WalRecord> ParseDeltaLines(
      const std::vector<std::string>& lines);

  // Rebuilds engine state from a log: replays DDL immediately and the row
  // images of committed transactions in commit order. The engine must be
  // fresh (no databases).
  static Status Recover(const std::string& path, Engine* engine);

  // --- Serialization helpers (exposed for tests) ---
  static std::string EncodeValue(const Value& value);
  static Result<Value> DecodeValue(const std::string& text);
  static std::string EncodeSchema(const TableSchema& schema);
  static Result<TableSchema> DecodeSchema(const std::string& text);

 private:
  explicit WriteAheadLog(std::unique_ptr<wal::LogWriter> writer);

  std::unique_ptr<wal::LogWriter> writer_;
};

}  // namespace mtdb

#endif  // MTDB_STORAGE_WAL_WAL_H_
