#include "src/storage/engine.h"

#include <chrono>
#include <functional>
#include <thread>

#include "src/common/logging.h"
#include "src/sql/planner.h"

namespace mtdb {

namespace {

// Plan-cache capacity (distinct (db, sql) entries). When full, the
// least-recently-used entry is evicted — one tenant's churn displaces one
// plan at a time instead of wiping every tenant's warm plans.
constexpr size_t kMaxCachedPlans = 512;

// Amortized GC trigger: settle every chain once per this many completed
// snapshot transactions (plus on-demand via Engine::MvccGc).
constexpr uint64_t kMvccGcInterval = 64;

// Gauge analogue of the obs::Increment/Observe helpers (null-safe,
// kill-switch aware).
void SetGauge(obs::Gauge* gauge, int64_t value) {
#if !defined(MTDB_NO_METRICS)
  if (gauge != nullptr && obs::MetricsRegistry::enabled()) gauge->Set(value);
#else
  (void)gauge;
  (void)value;
#endif
}

// The engine, not the raw lock-manager defaults, decides the audit config:
// auditing follows EngineOptions::invariant_checks, and the sanctioned
// PREPARE-time read-lock release follows release_read_locks_on_prepare.
LockManagerOptions MakeLockOptions(const EngineOptions& options,
                                   const std::string& site_name) {
  LockManagerOptions lock_options = options.lock_options;
  lock_options.audit_strict_2pl = options.invariant_checks;
  lock_options.allow_read_release_at_prepare =
      options.release_read_locks_on_prepare;
  lock_options.metrics_label = site_name;
  return lock_options;
}

}  // namespace

Engine::Engine(std::string site_name, EngineOptions options)
    : site_name_(std::move(site_name)),
      options_(options),
      lock_manager_(MakeLockOptions(options, site_name_)),
      buffer_cache_(options.buffer_pool_pages) {
  if (options_.invariant_checks) {
    txn_checker_ = std::make_unique<analysis::TwoPhaseCommitChecker>();
  }
  buffer_cache_.BindMetrics(site_name_);
  {
    auto& registry = obs::MetricsRegistry::Global();
    obs::MetricLabels labels{.machine = site_name_};
    m_txn_begin_ = registry.GetCounter("mtdb_txn_begin_total", labels);
    m_txn_commit_ = registry.GetCounter("mtdb_txn_commit_total", labels);
    m_txn_abort_ = registry.GetCounter("mtdb_txn_abort_total", labels);
    m_plan_hit_ = registry.GetCounter("mtdb_plan_cache_hit_total", labels);
    m_plan_miss_ = registry.GetCounter("mtdb_plan_cache_miss_total", labels);
    m_mvcc_snapshot_reads_ =
        registry.GetCounter("mtdb_mvcc_snapshot_reads_total", labels);
    m_mvcc_gc_pruned_ =
        registry.GetCounter("mtdb_mvcc_gc_pruned_total", labels);
    m_mvcc_versions_ = registry.GetGauge("mtdb_mvcc_versions_live", labels);
    m_mvcc_snapshot_begin_ =
        registry.GetHistogram("mtdb_mvcc_snapshot_begin_us", labels);
  }
  if (!options_.wal_path.empty()) {
    WriteAheadLog::Options wal_options;
    wal_options.sync_policy = options_.wal_sync_policy;
    wal_options.async_max_lag_records = options_.wal_async_max_lag_records;
    wal_options.sync_delay_us = options_.wal_sync_delay_us;
    wal_options.metrics_label = site_name_;
    auto wal = WriteAheadLog::Open(options_.wal_path, wal_options);
    if (wal.ok()) {
      wal_ = std::move(*wal);
    } else {
      MTDB_LOG(kError) << "engine " << site_name_
                       << " failed to open WAL: " << wal.status().ToString();
    }
  }
}

Engine::~Engine() = default;

std::string Engine::TableLockId(const std::string& db_name,
                                const std::string& table_name) {
  return "T/" + db_name + "/" + table_name;
}

std::string Engine::RowLockId(const std::string& db_name,
                              const std::string& table_name, const Value& pk) {
  return "R/" + db_name + "/" + table_name + "/" + pk.LockKey();
}

// --- Catalog ---

Status Engine::CreateDatabase(const std::string& db_name) {
  platform::WriterGuard lock(catalog_latch_);
  auto [it, inserted] =
      databases_.try_emplace(db_name, std::make_unique<Database>(
                                          db_name, &mvcc_versions_));
  if (!inserted) return Status::AlreadyExists("database " + db_name);
  if (wal_ != nullptr) {
    MTDB_RETURN_IF_ERROR(wal_->AppendDdl(
        {.type = WalRecordType::kCreateDatabase, .database = db_name}));
  }
  BumpSchemaVersion(db_name);
  return Status::OK();
}

Status Engine::DropDatabase(const std::string& db_name) {
  platform::WriterGuard lock(catalog_latch_);
  if (databases_.erase(db_name) == 0) {
    return Status::NotFound("database " + db_name);
  }
  {
    // No ABA on a re-create: CreateDatabase mints a fresh epoch value, and
    // a plan racing this drop finds no version to match and is not cached.
    platform::Guard plan_lock(plan_mu_);
    schema_versions_.erase(db_name);
    ErasePlansLocked(db_name);
  }
  // Logged under the catalog latch, like the create, so the log orders a
  // drop and a re-create as the catalog did.
  if (wal_ == nullptr) return Status::OK();
  return wal_->AppendDdl(
      {.type = WalRecordType::kDropDatabase, .database = db_name});
}

bool Engine::HasDatabase(const std::string& db_name) const {
  platform::ReaderGuard lock(catalog_latch_);
  return databases_.count(db_name) > 0;
}

Database* Engine::GetDatabase(const std::string& db_name) const {
  platform::ReaderGuard lock(catalog_latch_);
  auto it = databases_.find(db_name);
  return it == databases_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Engine::DatabaseNames() const {
  platform::ReaderGuard lock(catalog_latch_);
  std::vector<std::string> names;
  for (const auto& [name, db] : databases_) names.push_back(name);
  return names;
}

Status Engine::CreateTable(const std::string& db_name, TableSchema schema) {
  Database* db = GetDatabase(db_name);
  if (db == nullptr) return Status::NotFound("database " + db_name);
  if (schema.primary_key_index() < 0 ||
      schema.primary_key_index() >= static_cast<int>(schema.num_columns())) {
    return Status::InvalidArgument("table " + schema.name() +
                                   " has no primary key column");
  }
  WalRecord ddl{.type = WalRecordType::kCreateTable, .database = db_name};
  if (wal_ != nullptr) ddl.schema = schema;
  MTDB_RETURN_IF_ERROR(db->CreateTable(std::move(schema)));
  if (wal_ != nullptr) MTDB_RETURN_IF_ERROR(wal_->AppendDdl(ddl));
  BumpSchemaVersion(db_name);
  return Status::OK();
}

Status Engine::CreateIndex(const std::string& db_name,
                           const std::string& table_name,
                           const std::string& index_name,
                           const std::string& column_name) {
  MTDB_ASSIGN_OR_RETURN(Table * table, ResolveTable(db_name, table_name));
  MTDB_RETURN_IF_ERROR(table->AddIndex(index_name, column_name));
  if (wal_ != nullptr) {
    MTDB_RETURN_IF_ERROR(wal_->AppendDdl({.type = WalRecordType::kCreateIndex,
                                          .database = db_name,
                                          .table = table_name,
                                          .index = index_name,
                                          .column = column_name}));
  }
  BumpSchemaVersion(db_name);
  return Status::OK();
}

Status Engine::DropTable(const std::string& db_name,
                         const std::string& table_name) {
  Database* db = GetDatabase(db_name);
  if (db == nullptr) return Status::NotFound("database " + db_name);
  MTDB_RETURN_IF_ERROR(db->DropTable(table_name));
  BumpSchemaVersion(db_name);
  if (wal_ == nullptr) return Status::OK();
  return wal_->AppendDdl({.type = WalRecordType::kDropTable,
                          .database = db_name,
                          .table = table_name});
}

// --- SQL planning ---

void Engine::BumpSchemaVersion(const std::string& db_name) {
  platform::Guard lock(plan_mu_);
  schema_versions_[db_name] = ++schema_epoch_;
  // Erase eagerly so stale plans don't hold cache slots; the version check
  // in GetPlan covers any plan that slips back in concurrently.
  ErasePlansLocked(db_name);
}

void Engine::ErasePlansLocked(const std::string& db_name) {
  auto it = plan_cache_.lower_bound({db_name, std::string()});
  while (it != plan_cache_.end() && it->first.first == db_name) {
    plan_lru_.erase(it->second.lru);
    it = plan_cache_.erase(it);
  }
}

size_t Engine::plan_cache_size() const {
  platform::Guard lock(plan_mu_);
  return plan_cache_.size();
}

Result<std::shared_ptr<const sql::PlannedStatement>> Engine::GetPlan(
    const std::string& db_name, const std::string& sql) {
  const bool cacheable = sql.find('?') != std::string::npos;
  uint64_t version = 0;
  if (cacheable) {
    platform::Guard lock(plan_mu_);
    auto vit = schema_versions_.find(db_name);
    version = vit == schema_versions_.end() ? 0 : vit->second;
    auto it = plan_cache_.find({db_name, sql});
    if (it != plan_cache_.end() && it->second.schema_version == version) {
      plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second.lru);
      plan_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      obs::Increment(m_plan_hit_);
      return it->second.plan;
    }
  }
  plan_cache_misses_.fetch_add(1, std::memory_order_relaxed);
  obs::Increment(m_plan_miss_);
  // A miss plans from the shared parse: every database's plan of this text
  // points into one AST.
  MTDB_ASSIGN_OR_RETURN(std::shared_ptr<const sql::Statement> stmt,
                        statements_.Parse(sql));
  const bool explain = stmt->explain;
  sql::Planner planner(this);
  MTDB_ASSIGN_OR_RETURN(std::shared_ptr<const sql::PlannedStatement> plan,
                        planner.Plan(db_name, std::move(stmt)));
  if (cacheable && !explain) {
    platform::Guard lock(plan_mu_);
    auto vit = schema_versions_.find(db_name);
    uint64_t now = vit == schema_versions_.end() ? 0 : vit->second;
    // Don't cache a plan that raced a DDL: it was planned against a catalog
    // that no longer matches any version we could tag it with.
    if (now == version) {
      auto [it, inserted] = plan_cache_.try_emplace({db_name, sql});
      if (inserted) {
        plan_lru_.push_front(&it->first);
        it->second.lru = plan_lru_.begin();
        if (plan_cache_.size() > kMaxCachedPlans) {
          // Evict the least-recently-used entry: one displaced plan instead
          // of the old clear-when-full stampede that cold-started every
          // co-located tenant at once.
          plan_cache_.erase(plan_cache_.find(*plan_lru_.back()));
          plan_lru_.pop_back();
        }
      } else {
        plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second.lru);
      }
      it->second.schema_version = version;
      it->second.plan = plan;
    }
  }
  return plan;
}

Result<Table*> Engine::ResolveTable(const std::string& db_name,
                                    const std::string& table_name) const {
  Database* db = GetDatabase(db_name);
  if (db == nullptr) return Status::NotFound("database " + db_name);
  Table* table = db->GetTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("table " + table_name + " in database " + db_name);
  }
  return table;
}

// --- Transaction lifecycle ---

Status Engine::Begin(uint64_t txn_id, bool read_only, uint64_t* snapshot_ts) {
  const int64_t start_us = read_only ? NowMicros() : 0;
  platform::Guard lock(txn_mu_);
  auto [it, inserted] = txns_.try_emplace(txn_id, nullptr);
  if (!inserted) {
    return Status::AlreadyExists("txn " + std::to_string(txn_id) +
                                 " already exists at " + site_name_);
  }
  it->second = std::make_unique<Transaction>();
  it->second->id = txn_id;
  if (read_only) {
    it->second->read_only = true;
    it->second->snapshot_ts = oracle_.BeginSnapshot();
    if (snapshot_ts != nullptr) *snapshot_ts = it->second->snapshot_ts;
    obs::Observe(m_mvcc_snapshot_begin_, NowMicros() - start_us);
  }
  if (txn_checker_ != nullptr) txn_checker_->OnBegin(txn_id);
  obs::Increment(m_txn_begin_);
  return Status::OK();
}

Result<Transaction*> Engine::Find(uint64_t txn_id) const {
  platform::Guard lock(txn_mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) {
    return Status::NotFound("txn " + std::to_string(txn_id) + " at " +
                            site_name_);
  }
  return it->second.get();
}

Result<Transaction*> Engine::FindActive(uint64_t txn_id) const {
  MTDB_ASSIGN_OR_RETURN(Transaction * txn, Find(txn_id));
  if (txn->state != TxnState::kActive) {
    return Status::FailedPrecondition(
        "txn " + std::to_string(txn_id) + " is " +
        std::string(TxnStateName(txn->state)) + ", not active");
  }
  return txn;
}

Status Engine::Prepare(uint64_t txn_id) {
  uint64_t prepare_lsn = 0;
  MTDB_RETURN_IF_ERROR(Prepare(txn_id, &prepare_lsn));
  return AwaitDurable(prepare_lsn);
}

Status Engine::Prepare(uint64_t txn_id, uint64_t* durable_lsn) {
  *durable_lsn = 0;
  MTDB_ASSIGN_OR_RETURN(Transaction * txn, FindActive(txn_id));
  // A write transaction's yes-vote is a durability promise: the PREPARE
  // record (and, by LSN order, every row image before it) must reach the
  // log before the coordinator hears kPrepared. The record is enqueued here
  // and waited for by the caller *after* read-lock release, so concurrent
  // PREPAREs on this machine ride the same group flush.
  uint64_t prepare_lsn = 0;
  if (wal_ != nullptr && !txn->undo_log.empty()) {
    auto lsn_or = wal_->AppendDecisionAsync(WalRecordType::kPrepare, txn->id);
    if (!lsn_or.ok()) return lsn_or.status();  // vote no; coordinator aborts
    prepare_lsn = *lsn_or;
  }
  txn->state = TxnState::kPrepared;
  if (txn_checker_ != nullptr) {
    platform::Guard lock(txn_mu_);
    txn_checker_->OnPrepare(txn_id);
  }
  if (options_.release_read_locks_on_prepare && !txn->read_only) {
    lock_manager_.ReleaseReadLocks(txn_id);
  }
  *durable_lsn = prepare_lsn;
  return Status::OK();
}

Status Engine::AwaitDurable(uint64_t lsn) {
  return lsn == 0 || wal_ == nullptr ? Status::OK() : wal_->AwaitDurable(lsn);
}

void Engine::OnDurable(uint64_t lsn, wal::LogWriter::Completion done) {
  if (lsn == 0 || wal_ == nullptr) {
    done(Status::OK());
    return;
  }
  wal_->writer()->OnDurable(lsn, std::move(done));
}

void Engine::RecordCommit(Transaction* txn) {
  // Version publication happens here, the single funnel both Commit and
  // CommitPrepared pass through *before* lock release: the txn still holds
  // its X locks, so no competing writer can interleave with the append or
  // the settle.
  // (The commit WAL record was already enqueued by the caller — its
  // durability wait happens after lock release, in the caller.)
  MvccPublish(txn);
  if (options_.record_history) {
    history_.RecordCommit(*txn);
  }
  committed_.fetch_add(1, std::memory_order_relaxed);
  obs::Increment(m_txn_commit_);
}

Status Engine::CommitPrepared(uint64_t txn_id) {
  uint64_t commit_lsn = 0;
  MTDB_RETURN_IF_ERROR(CommitPrepared(txn_id, &commit_lsn));
  return AwaitDurable(commit_lsn);
}

Status Engine::CommitPrepared(uint64_t txn_id, uint64_t* durable_lsn) {
  *durable_lsn = 0;
  MTDB_ASSIGN_OR_RETURN(Transaction * txn, Find(txn_id));
  if (txn->state != TxnState::kPrepared) {
    return Status::FailedPrecondition("txn " + std::to_string(txn_id) +
                                      " not prepared");
  }
  // A failed commit-record append fails the commit — but does NOT abort:
  // the participant voted yes and must hold its locks in kPrepared until
  // the coordinator resolves the outcome (2PC contract).
  uint64_t commit_lsn = 0;
  if (wal_ != nullptr && !txn->undo_log.empty()) {
    MTDB_ASSIGN_OR_RETURN(
        commit_lsn, wal_->AppendDecisionAsync(WalRecordType::kCommit, txn->id));
  }
  txn->state = TxnState::kCommitted;
  RecordCommit(txn);
  MvccEndSnapshot(txn);
  if (!txn->read_only) {
    lock_manager_.ReleaseAll(txn_id);
  }
  {
    platform::Guard lock(txn_mu_);
    if (txn_checker_ != nullptr) txn_checker_->OnCommitPrepared(txn_id);
    txns_.erase(txn_id);
  }
  // The durability wait comes after lock release: the fsync (the slow part)
  // no longer extends the lock hold time, which is the group-commit win.
  *durable_lsn = commit_lsn;
  return Status::OK();
}

Status Engine::Commit(uint64_t txn_id) {
  uint64_t commit_lsn = 0;
  MTDB_RETURN_IF_ERROR(Commit(txn_id, &commit_lsn));
  return AwaitDurable(commit_lsn);
}

Status Engine::Commit(uint64_t txn_id, uint64_t* durable_lsn) {
  *durable_lsn = 0;
  MTDB_ASSIGN_OR_RETURN(Transaction * txn, FindActive(txn_id));
  // Enqueue the commit record before any state changes: if the log is dead
  // the transaction can still be rolled back (locks and undo are intact),
  // so a durability failure becomes a clean abort instead of a silently
  // volatile "commit". Read-only (and otherwise writeless) transactions
  // logged no row ops, so a commit record would be recovery noise; skip it.
  uint64_t commit_lsn = 0;
  if (wal_ != nullptr && !txn->undo_log.empty()) {
    auto lsn_or = wal_->AppendDecisionAsync(WalRecordType::kCommit, txn->id);
    if (!lsn_or.ok()) {
      Status rollback = Abort(txn_id);
      if (!rollback.ok()) {
        MTDB_LOG(kError) << "engine " << site_name_
                         << " rollback after failed commit append also failed: "
                         << rollback.ToString();
      }
      return lsn_or.status();
    }
    commit_lsn = *lsn_or;
  }
  txn->state = TxnState::kCommitted;
  RecordCommit(txn);
  MvccEndSnapshot(txn);
  // A snapshot transaction never acquired a lock, so there is nothing to
  // release — and releasing would serialize read-only commits on the
  // lock-manager mutex for nothing.
  if (!txn->read_only) {
    lock_manager_.ReleaseAll(txn_id);
  }
  {
    platform::Guard lock(txn_mu_);
    if (txn_checker_ != nullptr) txn_checker_->OnCommit(txn_id);
    txns_.erase(txn_id);
  }
  // The durability wait belongs after lock release (see CommitPrepared). A
  // failed wait reaches the caller: in-memory state has advanced but the
  // log is sticky-dead, so every later commit fails too — the machine is
  // effectively write-dead rather than silently non-durable.
  *durable_lsn = commit_lsn;
  return Status::OK();
}

void Engine::ApplyUndo(Transaction* txn) {
  for (auto it = txn->undo_log.rbegin(); it != txn->undo_log.rend(); ++it) {
    const UndoRecord& undo = *it;
    auto table_or = ResolveTable(undo.database, undo.table);
    if (!table_or.ok()) continue;  // table dropped under us; nothing to undo
    Table* table = *table_or;
    switch (undo.type) {
      case UndoRecord::Type::kInsert:
        table->Delete(undo.primary_key, undo.old_version);
        break;
      case UndoRecord::Type::kUpdate:
        table->Update(undo.primary_key, undo.old_row, undo.old_version);
        break;
      case UndoRecord::Type::kDelete:
        table->Insert(undo.old_row, undo.old_version);
        break;
    }
  }
}

Status Engine::Abort(uint64_t txn_id) {
  MTDB_ASSIGN_OR_RETURN(Transaction * txn, Find(txn_id));
  if (txn->state == TxnState::kCommitted) {
    return Status::FailedPrecondition("txn already committed");
  }
  ApplyUndo(txn);
  MvccSettle(txn);
  if (wal_ != nullptr && !txn->undo_log.empty()) {
    // The abort itself must complete regardless — undo is applied and the
    // locks must come off. An ABT record is only a recovery hint (losers
    // are identified by the *absence* of a CMT record), so a dead log costs
    // the hint, not correctness; surface the failure instead of swallowing.
    auto lsn_or = wal_->AppendDecisionAsync(WalRecordType::kAbort, txn_id);
    if (!lsn_or.ok()) {
      MTDB_LOG(kError) << "engine " << site_name_
                       << " failed to log abort record for txn " << txn_id
                       << ": " << lsn_or.status().ToString();
    }
  }
  txn->state = TxnState::kAborted;
  aborted_.fetch_add(1, std::memory_order_relaxed);
  obs::Increment(m_txn_abort_);
  MvccEndSnapshot(txn);
  if (!txn->read_only) {
    lock_manager_.ReleaseAll(txn_id);
  }
  platform::Guard lock(txn_mu_);
  if (txn_checker_ != nullptr) txn_checker_->OnAbort(txn_id);
  txns_.erase(txn_id);
  return Status::OK();
}

std::optional<TxnState> Engine::GetTxnState(uint64_t txn_id) const {
  platform::Guard lock(txn_mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) return std::nullopt;
  return it->second->state;
}

std::vector<uint64_t> Engine::PreparedTxnIds() const {
  platform::Guard lock(txn_mu_);
  std::vector<uint64_t> ids;
  for (const auto& [id, txn] : txns_) {
    if (txn->state == TxnState::kPrepared) ids.push_back(id);
  }
  return ids;
}

std::vector<uint64_t> Engine::ActiveTxnIds() const {
  platform::Guard lock(txn_mu_);
  std::vector<uint64_t> ids;
  for (const auto& [id, txn] : txns_) {
    if (txn->state == TxnState::kActive) ids.push_back(id);
  }
  return ids;
}

size_t Engine::ActiveTxnCount() const {
  platform::Guard lock(txn_mu_);
  return txns_.size();
}

// --- Row operations ---

uint64_t Engine::PageOf(const std::string& db_name,
                        const std::string& table_name, const Value& pk) const {
  uint64_t key_hash =
      std::hash<std::string>{}(db_name + "/" + table_name + "/" + pk.LockKey());
  return key_hash / static_cast<uint64_t>(options_.rows_per_page);
}

void Engine::ChargeCacheAccess(const std::string& db_name,
                               const std::string& table_name,
                               const Value& pk) {
  if (options_.buffer_pool_pages == 0) return;
  if (!buffer_cache_.Touch(PageOf(db_name, table_name, pk)) &&
      options_.cache_miss_penalty_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.cache_miss_penalty_us));
  }
}

void Engine::NoteScanRead(Transaction* txn, const std::string& db_name,
                          const std::string& table_name, const Value& pk,
                          uint64_t version, std::vector<uint64_t>* pages) {
  if (options_.buffer_pool_pages > 0) {
    pages->push_back(PageOf(db_name, table_name, pk));
  }
  txn->read_ops++;
  if (options_.record_history) {
    txn->reads.push_back({RowLockId(db_name, table_name, pk), version});
  }
}

void Engine::ChargeScanPages(const std::vector<uint64_t>& pages) {
  // Scans read pages sequentially: misses are counted against the buffer
  // pool as usual but charged at a fraction of the random-access penalty,
  // in one sleep after the pass (sequential I/O model).
  int64_t scan_misses = 0;
  for (uint64_t page : pages) {
    if (!buffer_cache_.Touch(page)) ++scan_misses;
  }
  if (scan_misses > 0 && options_.cache_miss_penalty_us > 0) {
    constexpr int64_t kSequentialDiscount = 8;
    std::this_thread::sleep_for(std::chrono::microseconds(
        scan_misses * options_.cache_miss_penalty_us / kSequentialDiscount));
  }
}

Result<std::optional<Row>> Engine::Read(uint64_t txn_id,
                                        const std::string& db_name,
                                        const std::string& table_name,
                                        const Value& pk) {
  MTDB_ASSIGN_OR_RETURN(Transaction * txn, FindActive(txn_id));
  if (txn->read_only) return SnapshotRead(txn, db_name, table_name, pk);
  MTDB_ASSIGN_OR_RETURN(Table * table, ResolveTable(db_name, table_name));
  MTDB_RETURN_IF_ERROR(lock_manager_.Acquire(
      txn_id, TableLockId(db_name, table_name), LockMode::kIntentionShared));
  MTDB_RETURN_IF_ERROR(lock_manager_.Acquire(
      txn_id, RowLockId(db_name, table_name, pk), LockMode::kShared));
  ChargeCacheAccess(db_name, table_name, pk);
  txn->read_ops++;
  std::optional<StoredRow> stored = table->Get(pk);
  if (options_.record_history) {
    uint64_t version = stored ? stored->version : table->LastVersion(pk);
    txn->reads.push_back(
        {RowLockId(db_name, table_name, pk), version});
  }
  if (!stored) return std::optional<Row>();
  return std::optional<Row>(std::move(stored->values));
}

Result<std::optional<Row>> Engine::SnapshotRead(Transaction* txn,
                                                const std::string& db_name,
                                                const std::string& table_name,
                                                const Value& pk) {
  MTDB_ASSIGN_OR_RETURN(Table * table, ResolveTable(db_name, table_name));
  ChargeCacheAccess(db_name, table_name, pk);
  txn->read_ops++;
  obs::Increment(m_mvcc_snapshot_reads_);
  // One latch section decides what the snapshot sees: the key's chain if
  // it has one, else its live row or absence.
  RowVersion visible = table->GetAt(pk, txn->snapshot_ts);
  if (options_.record_history) {
    txn->reads.push_back(
        {RowLockId(db_name, table_name, pk), visible.row_version});
  }
  return std::move(visible.values);
}

Status Engine::Insert(uint64_t txn_id, const std::string& db_name,
                      const std::string& table_name, const Row& row) {
  MTDB_ASSIGN_OR_RETURN(Transaction * txn, FindActive(txn_id));
  if (txn->read_only) {
    return Status::FailedPrecondition("read-only txn " +
                                      std::to_string(txn_id) +
                                      " cannot INSERT");
  }
  MTDB_ASSIGN_OR_RETURN(Table * table, ResolveTable(db_name, table_name));
  MTDB_RETURN_IF_ERROR(table->schema().ValidateRow(row));
  const Value& pk = row[table->schema().primary_key_index()];
  MTDB_RETURN_IF_ERROR(lock_manager_.Acquire(
      txn_id, TableLockId(db_name, table_name), LockMode::kIntentionExclusive));
  MTDB_RETURN_IF_ERROR(lock_manager_.Acquire(
      txn_id, RowLockId(db_name, table_name, pk), LockMode::kExclusive));
  ChargeCacheAccess(db_name, table_name, pk);
  uint64_t version = table->NextVersion();
  StoredRow old;
  if (!table->Insert(row, version, &old)) {
    return Status::AlreadyExists("duplicate primary key " + pk.ToString() +
                                 " in " + db_name + "." + table_name);
  }
  txn->write_ops++;
  txn->undo_log.push_back(UndoRecord{UndoRecord::Type::kInsert, db_name,
                                     table_name, pk, Row{}, old.version});
  if (options_.record_history) {
    txn->writes.push_back({RowLockId(db_name, table_name, pk), version});
  }
  if (wal_ != nullptr) {
    MTDB_RETURN_IF_ERROR(wal_->AppendRowOp(WalRecordType::kInsert, txn_id,
                                           db_name, table_name, pk, row));
  }
  return Status::OK();
}

Status Engine::Update(uint64_t txn_id, const std::string& db_name,
                      const std::string& table_name, const Value& pk,
                      const Row& row) {
  MTDB_ASSIGN_OR_RETURN(Transaction * txn, FindActive(txn_id));
  if (txn->read_only) {
    return Status::FailedPrecondition("read-only txn " +
                                      std::to_string(txn_id) +
                                      " cannot UPDATE");
  }
  MTDB_ASSIGN_OR_RETURN(Table * table, ResolveTable(db_name, table_name));
  MTDB_RETURN_IF_ERROR(table->schema().ValidateRow(row));
  MTDB_RETURN_IF_ERROR(lock_manager_.Acquire(
      txn_id, TableLockId(db_name, table_name), LockMode::kIntentionExclusive));
  MTDB_RETURN_IF_ERROR(lock_manager_.Acquire(
      txn_id, RowLockId(db_name, table_name, pk), LockMode::kExclusive));
  ChargeCacheAccess(db_name, table_name, pk);
  uint64_t version = table->NextVersion();
  StoredRow old;
  if (!table->Update(pk, row, version, &old)) {
    return Status::NotFound("no row with pk " + pk.ToString() + " in " +
                            db_name + "." + table_name);
  }
  txn->write_ops++;
  txn->undo_log.push_back(UndoRecord{UndoRecord::Type::kUpdate, db_name,
                                     table_name, pk, std::move(old.values),
                                     old.version});
  if (options_.record_history) {
    txn->writes.push_back({RowLockId(db_name, table_name, pk), version});
  }
  if (wal_ != nullptr) {
    MTDB_RETURN_IF_ERROR(wal_->AppendRowOp(WalRecordType::kUpdate, txn_id,
                                           db_name, table_name, pk, row));
  }
  return Status::OK();
}

Status Engine::Delete(uint64_t txn_id, const std::string& db_name,
                      const std::string& table_name, const Value& pk) {
  MTDB_ASSIGN_OR_RETURN(Transaction * txn, FindActive(txn_id));
  if (txn->read_only) {
    return Status::FailedPrecondition("read-only txn " +
                                      std::to_string(txn_id) +
                                      " cannot DELETE");
  }
  MTDB_ASSIGN_OR_RETURN(Table * table, ResolveTable(db_name, table_name));
  MTDB_RETURN_IF_ERROR(lock_manager_.Acquire(
      txn_id, TableLockId(db_name, table_name), LockMode::kIntentionExclusive));
  MTDB_RETURN_IF_ERROR(lock_manager_.Acquire(
      txn_id, RowLockId(db_name, table_name, pk), LockMode::kExclusive));
  ChargeCacheAccess(db_name, table_name, pk);
  uint64_t version = table->NextVersion();
  StoredRow old;
  if (!table->Delete(pk, version, &old)) {
    return Status::NotFound("no row with pk " + pk.ToString() + " in " +
                            db_name + "." + table_name);
  }
  txn->write_ops++;
  txn->undo_log.push_back(UndoRecord{UndoRecord::Type::kDelete, db_name,
                                     table_name, pk, std::move(old.values),
                                     old.version});
  if (options_.record_history) {
    txn->writes.push_back({RowLockId(db_name, table_name, pk), version});
  }
  if (wal_ != nullptr) {
    MTDB_RETURN_IF_ERROR(wal_->AppendRowOp(WalRecordType::kDelete, txn_id,
                                           db_name, table_name, pk, Row{}));
  }
  return Status::OK();
}

Status Engine::Scan(uint64_t txn_id, const std::string& db_name,
                    const std::string& table_name,
                    const std::optional<Value>& lo,
                    const std::optional<Value>& hi, const RowVisitor& visit) {
  MTDB_ASSIGN_OR_RETURN(Transaction * txn, FindActive(txn_id));
  MTDB_ASSIGN_OR_RETURN(Table * table, ResolveTable(db_name, table_name));
  // Under the table latch: count the read, note its page and hand the row
  // to the visitor in place. The pages are charged after the latch is
  // released, since a charge may sleep.
  std::vector<uint64_t> pages;
  auto note = [&](const Value& pk, const Row& row, uint64_t version) {
    NoteScanRead(txn, db_name, table_name, pk, version, &pages);
    return visit(row);
  };
  if (!txn->read_only) {
    MTDB_RETURN_IF_ERROR(lock_manager_.Acquire(
        txn_id, TableLockId(db_name, table_name), LockMode::kShared));
    table->VisitRange(lo, hi, [&note](const Value& pk, const StoredRow& row) {
      return note(pk, row.values, row.version);
    });
  } else {
    obs::Increment(m_mvcc_snapshot_reads_);
    table->VisitRangeAt(lo, hi, txn->snapshot_ts, note);
  }
  ChargeScanPages(pages);
  return Status::OK();
}

void Engine::MvccPublish(Transaction* txn) {
  if (txn->undo_log.empty()) return;
  {
    // Reserve -> install -> publish, serialized so that a snapshot taken at
    // LastPublished() never observes a torn commit: ts becomes visible to
    // BeginSnapshot only after every image of this txn is in its chain.
    platform::Guard lock(mvcc_commit_mu_);
    const uint64_t ts = oracle_.ReserveCommit();
    for (const UndoRecord& undo : txn->undo_log) {
      auto table = ResolveTable(undo.database, undo.table);
      if (table.ok()) (*table)->AppendCommitted(undo.primary_key, ts);
    }
    oracle_.Publish(ts);
  }
  MvccSettle(txn);
}

void Engine::MvccSettle(Transaction* txn) {
  if (txn->undo_log.empty()) return;
  // After a commit's publish with no snapshot open, the watermark covers
  // the commit; after an undo, the live rows show the seeded images again.
  // Either way each chain goes unless a snapshot still needs it.
  const uint64_t watermark = oracle_.Watermark();
  for (const UndoRecord& undo : txn->undo_log) {
    auto table = ResolveTable(undo.database, undo.table);
    if (table.ok()) (*table)->Settle(undo.primary_key, watermark);
  }
  SetGauge(m_mvcc_versions_, mvcc_versions_.load(std::memory_order_relaxed));
}

void Engine::MvccEndSnapshot(Transaction* txn) {
  if (!txn->read_only) return;
  oracle_.EndSnapshot(txn->snapshot_ts);
  // Amortized GC: prune once every kMvccGcInterval snapshot completions
  // (the watermark only rises when snapshots end).
  if (snapshots_since_gc_.fetch_add(1, std::memory_order_relaxed) + 1 >=
      kMvccGcInterval) {
    snapshots_since_gc_.store(0, std::memory_order_relaxed);
    MvccGc();
  }
}

size_t Engine::MvccGc() {
  const uint64_t watermark = oracle_.Watermark();
  size_t pruned = 0;
  {
    platform::ReaderGuard lock(catalog_latch_);
    for (const auto& [name, db] : databases_) {
      pruned += db->SettleVersions(watermark);
    }
  }
  if (pruned > 0) {
    obs::Increment(m_mvcc_gc_pruned_, static_cast<int64_t>(pruned));
    SetGauge(m_mvcc_versions_, mvcc_versions_.load(std::memory_order_relaxed));
  }
  return pruned;
}

Result<std::vector<Value>> Engine::IndexLookup(uint64_t txn_id,
                                               const std::string& db_name,
                                               const std::string& table_name,
                                               const std::string& column_name,
                                               const Value& key) {
  MTDB_ASSIGN_OR_RETURN(Transaction * txn, FindActive(txn_id));
  MTDB_ASSIGN_OR_RETURN(Table * table, ResolveTable(db_name, table_name));
  int column_index = table->schema().ColumnIndex(column_name);
  if (column_index < 0) {
    return Status::InvalidArgument("no column " + column_name);
  }
  if (txn->read_only) {
    // Snapshot transactions probe the index latch-only, with no IS lock;
    // visibility of each candidate pk is enforced by the SnapshotRead the
    // executor issues per probe result.
    return table->IndexLookup(column_index, key);
  }
  MTDB_RETURN_IF_ERROR(lock_manager_.Acquire(
      txn_id, TableLockId(db_name, table_name), LockMode::kIntentionShared));
  return table->IndexLookup(column_index, key);
}

Status Engine::LockTableExclusive(uint64_t txn_id, const std::string& db_name,
                                  const std::string& table_name) {
  MTDB_ASSIGN_OR_RETURN(Transaction * txn, FindActive(txn_id));
  if (txn->read_only) {
    return Status::FailedPrecondition("read-only txn " +
                                      std::to_string(txn_id) +
                                      " cannot lock tables");
  }
  MTDB_RETURN_IF_ERROR(ResolveTable(db_name, table_name).status());
  return lock_manager_.Acquire(txn_id, TableLockId(db_name, table_name),
                               LockMode::kExclusive);
}

Status Engine::LockTableShared(uint64_t txn_id, const std::string& db_name,
                               const std::string& table_name) {
  MTDB_ASSIGN_OR_RETURN(Transaction * txn, FindActive(txn_id));
  if (txn->read_only) {
    return Status::FailedPrecondition("read-only txn " +
                                      std::to_string(txn_id) +
                                      " cannot lock tables");
  }
  MTDB_RETURN_IF_ERROR(ResolveTable(db_name, table_name).status());
  return lock_manager_.Acquire(txn_id, TableLockId(db_name, table_name),
                               LockMode::kShared);
}

// --- Bulk load ---

Status Engine::BulkInsert(const std::string& db_name,
                          const std::string& table_name,
                          const std::vector<Row>& rows) {
  MTDB_ASSIGN_OR_RETURN(Table * table, ResolveTable(db_name, table_name));
  for (const Row& row : rows) {
    MTDB_RETURN_IF_ERROR(table->schema().ValidateRow(row));
    if (!table->Insert(row, table->NextVersion())) {
      return Status::AlreadyExists(
          "duplicate primary key during bulk load into " + table_name);
    }
    if (wal_ != nullptr) {
      // Bulk loads log under the always-committed pseudo transaction 0.
      MTDB_RETURN_IF_ERROR(wal_->AppendRowOp(
          WalRecordType::kInsert, 0, db_name, table_name,
          row[table->schema().primary_key_index()], row));
    }
  }
  if (wal_ != nullptr) MTDB_RETURN_IF_ERROR(wal_->Sync());
  return Status::OK();
}

Status Engine::ApplyRedoRow(const std::string& db_name,
                            const std::string& table_name, WalRecordType type,
                            const Value& primary_key, const Row& row) {
  MTDB_ASSIGN_OR_RETURN(Table * table, ResolveTable(db_name, table_name));
  switch (type) {
    case WalRecordType::kInsert:
    case WalRecordType::kUpdate:
      MTDB_RETURN_IF_ERROR(table->schema().ValidateRow(row));
      if (!table->Update(primary_key, row, table->NextVersion()) &&
          !table->Insert(row, table->NextVersion())) {
        return Status::Internal("redo apply failed for " + db_name + "." +
                                table_name);
      }
      break;
    case WalRecordType::kDelete:
      // Deleting an absent row is fine: the bulk copy may already reflect it.
      (void)table->Delete(primary_key, table->NextVersion());
      break;
    default:
      return Status::InvalidArgument("not a redo row record");
  }
  if (wal_ == nullptr) return Status::OK();
  return wal_->AppendRowOp(type, /*txn_id=*/0, db_name, table_name,
                           primary_key, row);
}

// --- History ---

std::vector<CommittedTxnRecord> Engine::GetHistory() const {
  return history_.Snapshot();
}

void Engine::ClearHistory() { history_.Clear(); }

}  // namespace mtdb
