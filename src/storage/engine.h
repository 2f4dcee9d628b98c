#ifndef MTDB_STORAGE_ENGINE_H_
#define MTDB_STORAGE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/history.h"
#include "src/analysis/two_phase.h"
#include "src/platform/mutex.h"
#include "src/common/result.h"
#include "src/obs/metrics.h"
#include "src/sql/statement_cache.h"
#include "src/storage/buffer_cache.h"
#include "src/storage/database.h"
#include "src/storage/lock_manager.h"
#include "src/storage/mvcc/timestamp_oracle.h"
#include "src/storage/transaction.h"
#include "src/storage/wal/wal.h"

namespace mtdb::sql {
struct PlannedStatement;
}  // namespace mtdb::sql

namespace mtdb {

struct EngineOptions {
  // Record committed read/write version observations for the
  // serializability checker.
  bool record_history = false;

  // Model the 2PC optimization of commercial engines: drop S/IS locks at
  // PREPARE instead of COMMIT. This is the behaviour the paper identifies as
  // the source of the aggressive-controller anomaly (Section 3.1). ON by
  // default, matching "most modern database systems".
  bool release_read_locks_on_prepare = true;

  // Buffer-pool model. 0 pages disables it (all hits, no penalty).
  size_t buffer_pool_pages = 0;
  int64_t cache_miss_penalty_us = 0;
  int64_t rows_per_page = 16;

  // Non-empty: append a redo-only write-ahead log to this file. Recover a
  // crashed engine's state with WriteAheadLog::Recover(path, fresh_engine).
  std::string wal_path;
  // Group-commit pipeline knobs, forwarded into wal::LogWriterOptions
  // (DESIGN.md §15).
  // The sync policy is the durability ablation axis: per-commit (one sync
  // per decision), group (coalesced, the default), async (bounded-lag
  // background sync). Commit and Prepare always wait for durability as the
  // policy directs; kAsync is the "don't wait for the device" setting.
  wal::SyncPolicy wal_sync_policy = wal::SyncPolicy::kGroup;
  int64_t wal_async_max_lag_records = 64;
  // Modeled log-device sync latency (µs), like cache_miss_penalty_us.
  int64_t wal_sync_delay_us = 0;

  // Run the runtime concurrency auditors on this engine: the strict-2PL
  // auditor in the lock manager and the 2PC participant state checker on
  // Prepare/Commit/Abort. A detected violation goes through
  // analysis::ReportViolation (default: abort). Defaults to on in builds
  // with invariant checks enabled (Debug or -DMTDB_INVARIANT_CHECKS=ON).
  bool invariant_checks = analysis::InvariantChecksEnabled();

  LockManager::Options lock_options;
};

// The per-machine single-node DBMS: databases of tables, a strict-2PL lock
// manager, undo-based aborts, and an XA-style transaction API
// (Begin / Prepare / CommitPrepared / Abort plus one-phase Commit).
//
// This is the building block the paper instantiates with MySQL; every
// behaviour the cluster controller relies on (2PC participant contract,
// read-lock release at PREPARE, table-granularity copy locking) is
// implemented here.
class Engine {
 public:
  explicit Engine(std::string site_name, EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const std::string& site_name() const { return site_name_; }
  const EngineOptions& options() const { return options_; }
  LockManager& lock_manager() { return lock_manager_; }
  BufferCache& buffer_cache() { return buffer_cache_; }

  // --- Catalog ---
  Status CreateDatabase(const std::string& db_name);
  // Drops the database with everything this engine keeps for it: tables
  // (their MVCC versions die with them), cached plans and its schema-version
  // entry.
  Status DropDatabase(const std::string& db_name);
  bool HasDatabase(const std::string& db_name) const;
  Database* GetDatabase(const std::string& db_name) const;
  std::vector<std::string> DatabaseNames() const;
  // Fails unless the schema's primary key names one of its columns.
  Status CreateTable(const std::string& db_name, TableSchema schema);
  Status CreateIndex(const std::string& db_name, const std::string& table_name,
                     const std::string& index_name,
                     const std::string& column_name);
  // Drops the table; its MVCC versions die with it.
  Status DropTable(const std::string& db_name, const std::string& table_name);

  // --- SQL planning (DESIGN.md §9) ---
  // Parses + plans `sql` against `db_name`, serving repeated calls from a
  // bounded LRU plan cache keyed (db, sql text) and validated against the
  // database's schema version — any DDL invalidates, and a statement whose
  // table was dropped surfaces kNotFound. Only '?'-parameterized,
  // non-EXPLAIN statements are cached (literal-bearing one-shot statements
  // would only churn the cache). A miss plans from the engine's parse
  // cache (sql::StatementCache, keyed by text alone), so a text parses
  // once however many databases plan it. These caches are the engine's only
  // statement state: a client "prepares" a statement by sending the same
  // text again.
  Result<std::shared_ptr<const sql::PlannedStatement>> GetPlan(
      const std::string& db_name, const std::string& sql);

  // Plan-cache observability (tests + bench).
  size_t plan_cache_size() const;
  int64_t plan_cache_hits() const {
    return plan_cache_hits_.load(std::memory_order_relaxed);
  }
  int64_t plan_cache_misses() const {
    return plan_cache_misses_.load(std::memory_order_relaxed);
  }

  // --- Transaction lifecycle ---
  // txn_id is assigned by the coordinator and must be unique engine-wide.
  // A read_only transaction pins a snapshot timestamp at begin — reported
  // through *snapshot_ts when non-null — and serves every read from the
  // tables' version chains and live rows without touching the lock manager;
  // its write ops are rejected with kFailedPrecondition.
  Status Begin(uint64_t txn_id, bool read_only = false,
               uint64_t* snapshot_ts = nullptr);
  // First phase of 2PC. Votes yes by returning OK; per options, releases
  // read locks. With a WAL, returns once the PREPARE record is durable.
  Status Prepare(uint64_t txn_id);
  // Second phase after a successful Prepare.
  Status CommitPrepared(uint64_t txn_id);
  // One-phase commit (single-participant or read-only transactions).
  Status Commit(uint64_t txn_id);
  // The same three calls without the durability wait: *durable_lsn receives
  // the LSN of the record the outcome waits on (0 when nothing was logged),
  // for AwaitDurable or OnDurable. A yes-vote or a commit is only a promise
  // once that LSN is durable. Each blocking form above is this call plus
  // AwaitDurable.
  Status Prepare(uint64_t txn_id, uint64_t* durable_lsn);
  Status CommitPrepared(uint64_t txn_id, uint64_t* durable_lsn);
  Status Commit(uint64_t txn_id, uint64_t* durable_lsn);
  // Blocks until `lsn` is durable; OK at once for 0 (or without a WAL).
  Status AwaitDurable(uint64_t lsn);
  // Runs `done` once `lsn` is durable (wal::LogWriter::OnDurable): on the
  // log thread, or at once on this one for 0 (or without a WAL).
  void OnDurable(uint64_t lsn, wal::LogWriter::Completion done);
  Status Abort(uint64_t txn_id);
  std::optional<TxnState> GetTxnState(uint64_t txn_id) const;
  // Ids of transactions in kPrepared state (used by controller takeover).
  std::vector<uint64_t> PreparedTxnIds() const;
  // Ids of transactions still in kActive state (takeover aborts these).
  std::vector<uint64_t> ActiveTxnIds() const;
  // Number of transactions not yet committed/aborted.
  size_t ActiveTxnCount() const;

  // --- Row operations (the executor API). All acquire logical locks and,
  // on write, append undo records. Errors of kind Deadlock/LockTimeout mean
  // the caller must Abort the transaction. ---
  Result<std::optional<Row>> Read(uint64_t txn_id, const std::string& db_name,
                                  const std::string& table_name,
                                  const Value& pk);
  Status Insert(uint64_t txn_id, const std::string& db_name,
                const std::string& table_name, const Row& row);
  Status Update(uint64_t txn_id, const std::string& db_name,
                const std::string& table_name, const Value& pk, const Row& row);
  Status Delete(uint64_t txn_id, const std::string& db_name,
                const std::string& table_name, const Value& pk);
  // Visits the rows whose PK lies in [lo, hi] (either bound optional) in PK
  // order until `visit` returns false; every visited row counts as read
  // (history, buffer-pool model). A locking transaction takes the table S
  // lock first and visits the stored rows in place, under the table latch.
  // A read-only one visits, in place under the latch too, the rows its
  // snapshot sees (Table::VisitRangeAt). Either way `visit` may evaluate,
  // accumulate and copy, but must not call into the engine or block: a row
  // it needs after returning, it copies.
  using RowVisitor = std::function<bool(const Row& row)>;
  Status Scan(uint64_t txn_id, const std::string& db_name,
              const std::string& table_name, const std::optional<Value>& lo,
              const std::optional<Value>& hi, const RowVisitor& visit);
  // Secondary-index probe (IS lock on table); caller Reads each pk after.
  Result<std::vector<Value>> IndexLookup(uint64_t txn_id,
                                         const std::string& db_name,
                                         const std::string& table_name,
                                         const std::string& column_name,
                                         const Value& key);
  // Table-granularity locks, used by whole-table updates and the copy tool.
  Status LockTableExclusive(uint64_t txn_id, const std::string& db_name,
                            const std::string& table_name);
  Status LockTableShared(uint64_t txn_id, const std::string& db_name,
                         const std::string& table_name);

  // --- Bulk, non-transactional writes (setup, copies and recovery only;
  // the caller guarantees no concurrent transaction touches the table). ---
  Status BulkInsert(const std::string& db_name, const std::string& table_name,
                    const std::vector<Row>& rows);
  // Applies one redo row image of the WAL replay (kInsert / kUpdate /
  // kDelete; WriteAheadLog::Replay), for recovery, bulk copies and
  // live-migration deltas alike. Upsert semantics: an insert-then-update
  // chain within a delta must land on whatever the bulk copy already
  // installed. The row takes this engine's own version. With a WAL, the
  // image is logged like a bulk load, under pseudo-transaction 0, and
  // enqueued only: Replay syncs once its records are applied.
  Status ApplyRedoRow(const std::string& db_name, const std::string& table_name,
                      WalRecordType type, const Value& primary_key,
                      const Row& row);

  // --- MVCC (DESIGN.md §13) ---
  const mvcc::TimestampOracle& timestamp_oracle() const { return oracle_; }
  // Versions held in every table's chains (mtdb_mvcc_versions_live). With
  // no snapshot open, 0 whenever no writer is in flight.
  int64_t mvcc_versions_live() const {
    return mvcc_versions_.load(std::memory_order_relaxed);
  }
  // Run one garbage-collection pass at the current watermark (min active
  // snapshot, or the published frontier when idle): settles every chain
  // (Table::SettleAll). Also triggered automatically every kMvccGcInterval
  // snapshot completions. Returns the number of versions pruned.
  size_t MvccGc();

  // --- History & stats ---
  std::vector<CommittedTxnRecord> GetHistory() const;
  void ClearHistory();
  // Null when the engine runs without a WAL.
  WriteAheadLog* wal() const { return wal_.get(); }
  int64_t committed_count() const { return committed_.load(); }
  int64_t aborted_count() const { return aborted_.load(); }

  static std::string TableLockId(const std::string& db_name,
                                 const std::string& table_name);
  static std::string RowLockId(const std::string& db_name,
                               const std::string& table_name, const Value& pk);

 private:
  // Resolves db.table or returns an error. Requires no latches.
  Result<Table*> ResolveTable(const std::string& db_name,
                              const std::string& table_name) const;
  // Finds an active transaction, or error.
  Result<Transaction*> FindActive(uint64_t txn_id) const;
  Result<Transaction*> Find(uint64_t txn_id) const;
  // The buffer-cache model's page of a row.
  uint64_t PageOf(const std::string& db_name, const std::string& table_name,
                  const Value& pk) const;
  // Charges the buffer-cache model for touching a row.
  void ChargeCacheAccess(const std::string& db_name,
                         const std::string& table_name, const Value& pk);
  // Counts one row a scan visits as read (read_ops, history) and notes its
  // page in *pages; takes no lock, so it may run under the table latch.
  void NoteScanRead(Transaction* txn, const std::string& db_name,
                    const std::string& table_name, const Value& pk,
                    uint64_t version, std::vector<uint64_t>* pages);
  // Charges the pages a scan touched, at the sequential-read discount.
  void ChargeScanPages(const std::vector<uint64_t>& pages);
  void RecordCommit(Transaction* txn);
  // Applies the undo log in reverse; requires the txn's X locks still held.
  void ApplyUndo(Transaction* txn);

  // --- MVCC internals ---
  // Lock-free snapshot read of one row at the txn's snapshot timestamp;
  // never touches lock_manager_.
  Result<std::optional<Row>> SnapshotRead(Transaction* txn,
                                          const std::string& db_name,
                                          const std::string& table_name,
                                          const Value& pk);
  // Appends the live image of every key the txn wrote (its undo log names
  // them) under one reserved commit timestamp, publishes it, then settles
  // the chains. Called from RecordCommit, before lock release.
  void MvccPublish(Transaction* txn);
  // Settles the chain of every key the txn wrote at the current watermark,
  // while the txn still holds its X locks: after commit and after undo.
  void MvccSettle(Transaction* txn);
  // Closes out a read-only txn's snapshot and occasionally runs GC.
  void MvccEndSnapshot(Transaction* txn);

  std::string site_name_;
  EngineOptions options_;
  LockManager lock_manager_;
  BufferCache buffer_cache_;

  // Versions held in every table's chains, counted by the tables
  // themselves; declared before databases_ so it outlives every table.
  std::atomic<int64_t> mvcc_versions_{0};

  mutable platform::SharedMutex catalog_latch_{
      "storage/Engine::catalog_latch"};
  // Bound: one entry per hosted database, the tenant data itself;
  // DropDatabase erases it. mtdblint: allow(tenant-map)
  std::map<std::string, std::unique_ptr<Database>> databases_
      MTDB_GUARDED_BY(catalog_latch_);

  mutable platform::Mutex txn_mu_{"storage/Engine::txn_mu"};
  std::map<uint64_t, std::unique_ptr<Transaction>> txns_
      MTDB_GUARDED_BY(txn_mu_);
  // 2PC participant state checker; null unless options_.invariant_checks.
  // The pointer is set once in the constructor; the checker's state behind
  // it is only touched under txn_mu_ (hence PT_GUARDED_BY, which lets the
  // unlocked null checks stand while proving every notification is locked).
  std::unique_ptr<analysis::TwoPhaseCommitChecker> txn_checker_
      MTDB_PT_GUARDED_BY(txn_mu_);

  // --- Plan cache ---
  using PlanKey = std::pair<std::string, std::string>;  // (db, sql text)
  struct CachedPlan {
    uint64_t schema_version = 0;
    std::shared_ptr<const sql::PlannedStatement> plan;
    // This entry's node in plan_lru_.
    std::list<const PlanKey*>::iterator lru;
  };
  // Bumps the db's schema version and erases its cached plans. Called by
  // CreateDatabase and every successful DDL.
  void BumpSchemaVersion(const std::string& db_name);
  // Erases `db_name`'s cached plans: a range of the ordered cache.
  void ErasePlansLocked(const std::string& db_name) MTDB_REQUIRES(plan_mu_);

  mutable platform::Mutex plan_mu_{"storage/Engine::plan_mu"};
  // Bound: one entry per hosted database; DropDatabase erases it.
  // mtdblint: allow(tenant-map)
  std::map<std::string, uint64_t> schema_versions_ MTDB_GUARDED_BY(plan_mu_);
  // engine-wide; versions never repeat
  uint64_t schema_epoch_ MTDB_GUARDED_BY(plan_mu_) = 0;
  std::map<PlanKey, CachedPlan> plan_cache_ MTDB_GUARDED_BY(plan_mu_);
  // Recency order of plan_cache_'s keys, most recent first: a hit moves its
  // key to the front, and a full cache evicts the back.
  std::list<const PlanKey*> plan_lru_ MTDB_GUARDED_BY(plan_mu_);
  std::atomic<int64_t> plan_cache_hits_{0};
  std::atomic<int64_t> plan_cache_misses_{0};
  // Parses shared by every database's plans of one text: a plan-cache miss
  // re-plans without re-parsing.
  sql::StatementCache statements_;

  // --- MVCC state (DESIGN.md §13) ---
  mvcc::TimestampOracle oracle_;
  // Serializes reserve→install→publish so snapshot timestamps never expose
  // a half-installed commit. Held only across the chain appends (the
  // catalog and table latches nest under it; no lock-manager interaction).
  platform::Mutex mvcc_commit_mu_{"storage/Engine::mvcc_commit_mu"};
  std::atomic<uint64_t> snapshots_since_gc_{0};

  // Committed-transaction log for the offline DSG auditor (populated when
  // options_.record_history is set); owns its own lock.
  analysis::HistoryRecorder history_;

  std::atomic<int64_t> committed_{0};
  std::atomic<int64_t> aborted_{0};

  // Registry series labeled {machine=site_name_}, resolved once in the
  // constructor so the hot paths just bump cached pointers.
  obs::Counter* m_txn_begin_ = nullptr;
  obs::Counter* m_txn_commit_ = nullptr;
  obs::Counter* m_txn_abort_ = nullptr;
  obs::Counter* m_plan_hit_ = nullptr;
  obs::Counter* m_plan_miss_ = nullptr;
  obs::Counter* m_mvcc_snapshot_reads_ = nullptr;
  obs::Counter* m_mvcc_gc_pruned_ = nullptr;
  obs::Gauge* m_mvcc_versions_ = nullptr;
  Histogram* m_mvcc_snapshot_begin_ = nullptr;

  std::unique_ptr<WriteAheadLog> wal_;  // null when WAL disabled
};

}  // namespace mtdb

#endif  // MTDB_STORAGE_ENGINE_H_
