#ifndef MTDB_STORAGE_WAL_WAL_H_
#define MTDB_STORAGE_WAL_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/storage/schema.h"
#include "src/storage/value.h"
#include "src/storage/wal/log_writer.h"

namespace mtdb {

class Engine;

// Record kinds in the redo log. The values are the records' type bytes:
// stable on disk and on the wire, append-only.
enum class WalRecordType : uint8_t {
  kCreateDatabase = 1,
  kCreateTable = 2,
  kCreateIndex = 3,
  kInsert = 4,
  kUpdate = 5,
  kDelete = 6,
  kPrepare = 7,
  kCommit = 8,
  kAbort = 9,
  kDropDatabase = 10,
  kDropTable = 11,
};

// One decoded log record. Field usage depends on the type. Default member
// initializers keep partial designated initialization clean under -Wextra.
struct WalRecord {
  WalRecordType type = WalRecordType::kCommit;
  uint64_t txn_id = 0;      // row images (0 = bulk load or copy) and decisions
  std::string database{};   // everything but decisions
  std::string table{};      // table DDL and row images
  TableSchema schema{};     // kCreateTable
  std::string index{};      // kCreateIndex: the index name
  std::string column{};     // kCreateIndex: the indexed column
  Value primary_key{};      // row images
  Row row{};                // kInsert / kUpdate after-image
};

// A redo-only write-ahead log. The engine appends row after-images as
// statements execute and a COMMIT record at transaction commit; recovery
// replays the redo of committed transactions in log order, discarding
// losers. (The in-memory tables are the volatile buffer; this log is the
// persistent copy — a no-steal/redo-only regime, so no undo is ever needed
// at recovery time.)
//
// Each record is a u32 length (little-endian) and a payload in the storage
// encoding (src/storage/encoding.h): a type byte, then the type's fields —
//   kCreateDatabase, kDropDatabase  database
//   kCreateTable                    database, schema
//   kCreateIndex                    database, table, index, column
//   kDropTable                      database, table
//   kInsert, kUpdate, kDelete       txn id (u64), database, table, key, row
//   kPrepare, kCommit, kAbort       txn id (u64)
// The LSN of a record is its 1-based number in the file. A crash can leave
// an incomplete last record, the torn tail; readers ignore it. The payload
// is also the one form in which rows move between machines outside a
// client transaction: bulk copies and migration deltas ship payloads, and
// the target replays them.
//
// Durability runs through the wal::LogWriter group-commit pipeline
// (log_writer.h): appends enqueue onto a bounded queue and return an LSN, a
// dedicated log thread coalesces queued records into one write+sync, and
// AwaitDurable(lsn) releases committers in LSN order.
//
// Thread-safe: concurrent appends are serialized by the pipeline's queue;
// record order in the file is LSN order.
class WriteAheadLog {
 public:
  using Options = wal::LogWriterOptions;

  // Opens (appending) or creates the log file and starts the log thread.
  static Result<std::unique_ptr<WriteAheadLog>> Open(const std::string& path,
                                                     Options options = {});
  // Unlinks the log file at `path`, so the next Open starts an empty log. A
  // log still open on the old file keeps writing into that unlinked file,
  // never into the new one. A missing file is fine.
  static Status Discard(const std::string& path);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  const std::string& path() const { return writer_->path(); }
  const Options& options() const { return writer_->options(); }

  // Appends a DDL record (create or drop of a database, table or index).
  // DDL is rare and structural: synced before returning, regardless of
  // policy.
  Status AppendDdl(const WalRecord& record);
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

  // One record's payload, as the log writes it (after its length prefix)
  // and as ReadCommittedDeltaSince returns it: the one encoding of rows that
  // move between machines outside a client transaction.
  static std::string Encode(const WalRecord& record);
  // The inverse of Encode. Malformed input, a kCreateTable schema naming no
  // key column among them, yields kInvalidArgument.
  static Result<WalRecord> Decode(std::string_view payload);

  // Every complete record of a log file, decoded, in LSN order. The torn
  // tail is ignored; a complete record that does not decode is an error.
  static Result<std::vector<WalRecord>> ReadAll(const std::string& path);

  // The committed-record filter. Returns, in log order, the record payloads
  // that catch `database` ("" = every database) up past the `after_lsn`
  // frontier:
  //   * DDL records with LSN > after_lsn, and
  //   * row images of transactions whose COMMIT record has LSN >
  //     after_lsn — the images themselves may be older (a transaction in
  //     flight when the previous round read the log), which is why the
  //     filter keys on the decision LSN, not the image LSN. Bulk-load
  //     images (pseudo-transaction 0, implicitly committed) key on their
  //     own LSN.
  // Decisions never ship, and aborted and still-undecided transactions are
  // left out, so Replay applies the result unconditionally. `frontier`
  // receives the LSN of the last complete record; passing it back as the
  // next round's after_lsn yields disjoint, gap-free rounds. Live-migration
  // callers must Sync() the live log first so enqueued records have reached
  // the file.
  static Result<std::vector<std::string>> ReadCommittedDeltaSince(
      const std::string& path, const std::string& database,
      uint64_t after_lsn, uint64_t* frontier);

  // The one replay, of record payloads in order: a delta as
  // ReadCommittedDeltaSince returns it, or a bulk copy as AppendCopyRecords
  // (dump.h) encodes it. Row images go in as upserts (Engine::ApplyRedoRow),
  // and a record whose object already exists, or is already gone, is
  // skipped: that lets a migration target apply a delta on top of a bulk
  // copy that already reflects part of it, and makes installing a copy
  // twice leave one copy. On an engine with a log, everything applied is
  // logged (row images under pseudo-transaction 0) and synced before Replay
  // returns, so the copy is as durable as a bulk load. A record that does
  // not decode fails with kInvalidArgument.
  static Status Replay(const std::vector<std::string>& records,
                       Engine* engine);

  // Rebuilds engine state from a log: the replay of every committed record
  // from LSN 0. The engine must be fresh (no databases) and have no log of
  // its own.
  static Status Recover(const std::string& path, Engine* engine);

 private:
  explicit WriteAheadLog(std::unique_ptr<wal::LogWriter> writer);

  std::unique_ptr<wal::LogWriter> writer_;
};

}  // namespace mtdb

#endif  // MTDB_STORAGE_WAL_WAL_H_
