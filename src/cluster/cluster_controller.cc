#include "src/cluster/cluster_controller.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/obs/trace.h"
#include "src/sql/parser.h"

namespace mtdb {

namespace {

// Throttle backoff: the first wait, and the cap the doubling stops at.
constexpr int64_t kInitialBackoffUs = 1'000;
constexpr int64_t kMaxBackoffUs = 100'000;

// How often WaitForQuiescentWrites re-reads a tenant's writes in flight.
constexpr int64_t kQuiescencePollUs = 200;

// The single table a write statement touches (the correctness of Algorithm 1
// relies on SQL updates touching exactly one table).
const std::string* WriteTargetTable(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::StatementKind::kInsert:
      return &stmt.insert.table;
    case sql::StatementKind::kUpdate:
      return &stmt.update.table;
    case sql::StatementKind::kDelete:
      return &stmt.del.table;
    default:
      return nullptr;
  }
}

bool IsReadStatement(const sql::Statement& stmt) {
  return stmt.kind == sql::StatementKind::kSelect;
}

}  // namespace

// ===== ClusterController =====

ClusterController::ClusterController(ClusterControllerOptions options)
    : options_(options), catalog_(options_.catalog) {
  if (options_.transport != nullptr) {
    transport_ = options_.transport;
  } else {
    owned_transport_ = std::make_unique<net::InProcTransport>();
    transport_ = owned_transport_.get();
  }
  client_ = std::make_unique<net::MachineClient>(transport_, options_.rpc);
  // A machine that misses an RPC deadline is silent — under the fail-stop
  // model the controller declares it failed and lets Section 3 recovery
  // restore the replication factor.
  client_->SetTimeoutListener([this](int machine_id) {
    MTDB_LOG(kWarning) << "machine " << machine_id
                       << " missed an rpc deadline; declaring it failed";
    FailMachine(machine_id);
  });
  auto& registry = obs::MetricsRegistry::Global();
  m_failover_ = registry.GetCounter("mtdb_machine_failover_total", {});
  m_txn_commit_ = registry.GetCounter("mtdb_txn_commit_total", {});
  m_txn_abort_ = registry.GetCounter("mtdb_txn_abort_total", {});
  m_read_retry_ = registry.GetCounter("mtdb_read_retry_total", {});
  m_backoff_ = registry.GetCounter("mtdb_qos_backoff_total", {});
  m_backoff_wait_us_ = registry.GetHistogram("mtdb_qos_backoff_wait_us", {});
  m_txn_latency_us_ = registry.GetHistogram("mtdb_txn_latency_us", {});
  m_2pc_prepare_us_ = registry.GetHistogram("mtdb_2pc_prepare_us", {});
  m_2pc_commit_us_ = registry.GetHistogram("mtdb_2pc_commit_us", {});
  m_2pc_pending_ = registry.GetGauge("mtdb_2pc_decisions_pending", {});
}

ClusterController::~ClusterController() {
  // Phase 2 runs behind the client's answer: let every outstanding COMMIT
  // PREPARED reply (or its deadline) retire its decision before the client
  // and the transport go.
  SettleCommitDecisions();
}

int ClusterController::AddMachine(MachineOptions machine_options) {
  net::MachineService* service = nullptr;
  int id;
  {
    platform::Guard lock(mu_);
    id = static_cast<int>(machines_.size());
    machines_.push_back(std::make_unique<Machine>(id, machine_options));
    services_.push_back(
        std::make_unique<net::MachineService>(machines_.back().get()));
    service = services_.back().get();
    machine_replica_load_.push_back(0);
    machine_count_.store(machines_.size(), std::memory_order_release);
  }
  transport_->AttachLocal(id, service);
  return id;
}

Machine* ClusterController::machine(int id) const {
  platform::Guard lock(mu_);
  if (id < 0 || static_cast<size_t>(id) >= machines_.size()) return nullptr;
  return machines_[id].get();
}

std::vector<int> ClusterController::MachineIds() const {
  platform::Guard lock(mu_);
  std::vector<int> ids;
  for (const auto& m : machines_) ids.push_back(m->id());
  return ids;
}

Status ClusterController::CreateDatabase(const std::string& db_name,
                                         int num_replicas) {
  if (num_replicas <= 0) num_replicas = options_.default_replicas;
  if (catalog_.Contains(db_name)) {
    return Status::AlreadyExists("database " + db_name);
  }
  std::vector<int> chosen;
  {
    platform::Guard lock(mu_);
    // Least-loaded placement: machines hosting the fewest replicas first.
    // machine_replica_load_ is maintained incrementally on every placement
    // change, so a create costs O(machines log machines) — not a scan of
    // every tenant's replica list, which at 10^5 tenants would make
    // creation quadratic in aggregate.
    std::vector<std::pair<int64_t, int>> load_by_machine;  // (load, id)
    for (const auto& m : machines_) {
      if (m->failed()) continue;
      load_by_machine.emplace_back(machine_replica_load_[m->id()], m->id());
    }
    if (static_cast<int>(load_by_machine.size()) < num_replicas) {
      return Status::ResourceExhausted(
          "not enough machines for " + std::to_string(num_replicas) +
          " replicas of " + db_name);
    }
    std::sort(load_by_machine.begin(), load_by_machine.end());
    for (int i = 0; i < num_replicas; ++i) {
      chosen.push_back(load_by_machine[i].second);
    }
  }
  return CreateDatabaseOn(db_name, chosen);
}

Status ClusterController::CreateDatabaseOn(const std::string& db_name,
                                           const std::vector<int>& machine_ids) {
  if (machine_ids.empty()) {
    return Status::InvalidArgument("need at least one replica");
  }
  {
    platform::Guard lock(mu_);
    for (int id : machine_ids) {
      if (id < 0 || static_cast<size_t>(id) >= machines_.size()) {
        return Status::InvalidArgument("no machine " + std::to_string(id));
      }
      if (machines_[id]->failed()) {
        return Status::Unavailable("machine " + std::to_string(id) +
                                   " is failed");
      }
    }
  }
  // Reserve the name in the catalog while the replica CreateDatabase RPCs
  // run unlocked (a reserved tenant fails concurrent creates with
  // kAlreadyExists but is not yet routable).
  MTDB_RETURN_IF_ERROR(catalog_.Reserve(db_name));

  // The CreateDatabase RPCs run unlocked: neither mu_ nor a catalog shard
  // lock may be held across the wire (a slow machine would stall the
  // cluster).
  Status status;
  std::vector<int> created;
  for (int id : machine_ids) {
    status = client_->CreateDatabase(id, db_name);
    if (!status.ok()) break;
    created.push_back(id);
  }
  if (!status.ok()) {
    for (int id : created) (void)client_->DropDatabase(id, db_name);
    catalog_.AbortReserve(db_name);
    return status;
  }

  catalog::TenantRecord record;
  record.replicas = machine_ids;
  {
    platform::Guard lock(mu_);
    // Round-robin primary assignment among databases sharing this replica
    // set, so Option-1 primaries spread evenly across machines.
    uint64_t rr = replica_set_rr_[machine_ids]++;
    record.primary_offset =
        static_cast<int>(rr % machine_ids.size());
    for (int id : machine_ids) machine_replica_load_[id]++;
  }
  catalog_.Install(db_name, std::move(record));
  return Status::OK();
}

Status ClusterController::DropDatabase(const std::string& db_name) {
  std::vector<int> replicas;
  Status found = catalog_.With(
      db_name, [&](catalog::TenantRecord& record) {
        replicas = record.replicas;
      });
  MTDB_RETURN_IF_ERROR(found);
  // Erase from the catalog first (new transactions fail routing with
  // NotFound); a concurrent dropper losing this race returns NotFound and
  // skips the load accounting below. The entry's prepared registrations
  // die with it.
  MTDB_RETURN_IF_ERROR(catalog_.Erase(db_name));
  std::vector<int> alive;
  {
    platform::Guard lock(mu_);
    for (int id : replicas) {
      machine_replica_load_[id]--;
      if (!machines_[id]->failed()) alive.push_back(id);
    }
  }
  // kDropDatabase is all a machine needs to forget the tenant. The
  // LoadMonitor window ages out by itself.
  for (int id : alive) {
    (void)client_->DropDatabase(id, db_name);
  }
  return Status::OK();
}

std::vector<int> ClusterController::ReplicasOf(
    const std::string& db_name) const {
  std::vector<int> replicas;
  (void)catalog_.With(db_name,
                      [&](const catalog::TenantRecord& record) {
                        replicas = record.replicas;
                      });
  return replicas;
}

std::vector<std::string> ClusterController::DatabaseNames() const {
  return catalog_.Names();
}

Status ClusterController::ExecuteDdl(const std::string& db_name,
                                     const std::string& sql) {
  // Parse locally first so a bad statement fails fast with a ParseError
  // instead of a per-replica RPC error.
  MTDB_RETURN_IF_ERROR(sql::Parse(sql).status());
  std::vector<int> replicas = ReplicasOf(db_name);
  if (replicas.empty()) return Status::NotFound("database " + db_name);
  for (int id : replicas) {
    Machine* m = machine(id);
    if (m == nullptr || m->failed()) continue;
    MTDB_RETURN_IF_ERROR(client_->ExecuteDdl(id, db_name, sql));
  }
  return Status::OK();
}

Status ClusterController::BulkLoad(const std::string& db_name,
                                   const std::string& table,
                                   const std::vector<Row>& rows) {
  std::vector<int> replicas = ReplicasOf(db_name);
  if (replicas.empty()) return Status::NotFound("database " + db_name);
  for (int id : replicas) {
    Machine* m = machine(id);
    if (m == nullptr || m->failed()) continue;
    MTDB_RETURN_IF_ERROR(client_->BulkLoad(id, db_name, table, rows));
  }
  return Status::OK();
}

std::unique_ptr<Connection> ClusterController::Connect(
    const std::string& db_name) {
  return std::unique_ptr<Connection>(
      new Connection(this, db_name, epoch_.load()));
}

// --- Prepared statements ---

Result<std::shared_ptr<PreparedStatement>> ClusterController::PrepareStatement(
    const std::string& db_name, const std::string& sql) {
  if (auto hit = catalog_.FindPrepared(db_name, sql); hit != nullptr) {
    return hit;
  }
  // Routing facts only (read vs. write, target table), from the parse every
  // tenant shares: re-registering after an eviction parses nothing. The
  // machines plan the text themselves, through their plan cache.
  MTDB_ASSIGN_OR_RETURN(std::shared_ptr<const sql::Statement> stmt,
                        statements_.Parse(sql));
  if (stmt->explain) {
    return Status::InvalidArgument("cannot prepare an EXPLAIN statement");
  }
  bool is_read = IsReadStatement(*stmt);
  std::string write_table;
  if (!is_read) {
    const std::string* table = WriteTargetTable(*stmt);
    if (table == nullptr) {
      return Status::InvalidArgument(
          "only SELECT and DML statements can be prepared");
    }
    write_table = *table;
  }
  auto prepared = std::shared_ptr<PreparedStatement>(new PreparedStatement(
      db_name, sql, is_read, std::move(write_table)));
  // The catalog interns the registration in the tenant's evictable resident
  // state (racing preparers of the same text share whichever instance won);
  // a statement for an unknown database comes back unregistered but still
  // executable.
  return catalog_.InternPrepared(db_name, sql, std::move(prepared));
}

// --- Failure & copy coordination ---

void ClusterController::FailMachine(int machine_id) {
  Machine* m = machine(machine_id);
  // Count transitions, not calls: FailMachine is re-entered by every timed-out
  // RPC against an already-failed machine.
  if (m != nullptr && !m->failed()) obs::Increment(m_failover_);
  if (m != nullptr) m->Fail();
}

Status ClusterController::WithCopy(
    const std::string& db_name,
    const std::function<Status(catalog::TenantRecord&)>& fn) {
  Status status = Status::OK();
  Status found = catalog_.With(
      db_name, [&](catalog::TenantRecord& record) {
        status = record.copy.active
                     ? fn(record)
                     : Status::FailedPrecondition("no active copy for " +
                                                  db_name);
      });
  MTDB_RETURN_IF_ERROR(found);
  return status;
}

Status ClusterController::BeginCopy(const std::string& db_name,
                                    int target_machine, int source_machine,
                                    bool move) {
  Machine* target = machine(target_machine);
  if (target == nullptr || target->failed()) {
    return Status::FailedPrecondition("copy target machine " +
                                      std::to_string(target_machine) +
                                      " is not alive");
  }
  Status status = Status::OK();
  Status found = catalog_.With(
      db_name, [&](catalog::TenantRecord& record) {
        auto hosts = [&record](int id) {
          return std::count(record.replicas.begin(), record.replicas.end(),
                            id) > 0;
        };
        if (record.copy.active) {
          status =
              Status::FailedPrecondition("copy already active for " + db_name);
        } else if (move && !hosts(source_machine)) {
          status = Status::FailedPrecondition(
              db_name + " has no replica on machine " +
              std::to_string(source_machine));
        } else if (hosts(target_machine)) {
          // For a move this means the plan is stale, not malformed.
          status = Status(move ? StatusCode::kFailedPrecondition
                               : StatusCode::kInvalidArgument,
                          "target already hosts " + db_name);
        } else {
          record.copy.active = true;
          record.copy.source_machine = source_machine;
          record.copy.target_machine = target_machine;
          record.copy.move = move;
        }
      });
  MTDB_RETURN_IF_ERROR(found);
  return status;
}

Status ClusterController::SetCopyInProgress(const std::string& db_name,
                                            const std::string& table) {
  return WithCopy(db_name, [&](catalog::TenantRecord& record) {
    record.copy.in_progress = table;
    return Status::OK();
  });
}

Status ClusterController::MarkTableCopied(const std::string& db_name,
                                          const std::string& table) {
  return WithCopy(db_name, [&](catalog::TenantRecord& record) {
    record.copy.copied_tables.insert(table);
    if (record.copy.in_progress == table) record.copy.in_progress.clear();
    return Status::OK();
  });
}

Status ClusterController::FreezeCopy(const std::string& db_name) {
  return WithCopy(db_name, [](catalog::TenantRecord& record) {
    record.copy.cutover = true;
    record.copy.copied_tables.clear();
    record.copy.in_progress.clear();
    return Status::OK();
  });
}

Status ClusterController::CompleteCopy(const std::string& db_name) {
  // Snapshot machine aliveness under mu_ first: the record mutation below
  // runs under the catalog shard lock, which is never nested with mu_.
  std::vector<char> failed;
  {
    platform::Guard lock(mu_);
    failed.resize(machines_.size());
    for (const auto& m : machines_) {
      failed[m->id()] = m->failed() ? 1 : 0;
    }
  }
  int target = -1;
  std::optional<qos::QuotaSpec> quota;
  std::vector<int> old_replicas;
  std::vector<int> new_replicas;
  MTDB_RETURN_IF_ERROR(WithCopy(db_name, [&](catalog::TenantRecord& record) {
    const catalog::CopyState& copy = record.copy;
    target = copy.target_machine;
    if (failed[target] != 0) {
      return Status::FailedPrecondition("copy target machine " +
                                        std::to_string(target) + " failed");
    }
    old_replicas = record.replicas;
    if (copy.move) {
      std::replace(record.replicas.begin(), record.replicas.end(),
                   copy.source_machine, target);
    } else {
      record.replicas.push_back(target);
    }
    // Failed machines have been replaced; drop them from the replica map.
    std::erase_if(record.replicas,
                  [&failed](int id) { return failed[id] != 0; });
    record.copy = catalog::CopyState{};
    new_replicas = record.replicas;
    if (record.has_quota) quota = record.quota;
    return Status::OK();
  }));
  {
    platform::Guard lock(mu_);
    // Replica-count bookkeeping for least-loaded placement: apply the
    // multiset delta between the new and old replica lists (the target
    // joined; a moved-off source or pruned failed machines left).
    for (int id : new_replicas) machine_replica_load_[id]++;
    for (int id : old_replicas) machine_replica_load_[id]--;
  }
  // The quota follows the database: the target must throttle the tenant
  // exactly like the replicas it joined, and nothing else re-pushes it.
  if (quota.has_value()) {
    (void)client_->SetQuota(target, db_name, quota->rate_tps, quota->burst,
                            quota->weight);
  }
  return Status::OK();
}

Status ClusterController::AbandonCopy(const std::string& db_name) {
  return catalog_.With(db_name, [](catalog::TenantRecord& record) {
    record.copy = catalog::CopyState{};
  });
}

// --- QoS / admission control ---

Status ClusterController::SetDatabaseQuota(const std::string& db_name,
                                           const qos::QuotaSpec& spec) {
  std::vector<int> replicas;
  Status found = catalog_.With(
      db_name, [&](catalog::TenantRecord& record) {
        record.quota = spec;
        record.has_quota = true;
        replicas = record.replicas;
      });
  MTDB_RETURN_IF_ERROR(found);
  std::vector<int> targets = AliveReplicas(replicas);
  // Push unlocked: kSetQuota is idempotent and a slow machine must not hold
  // the replica map.
  Status result = Status::OK();
  for (int machine_id : targets) {
    Status pushed = client_->SetQuota(machine_id, db_name, spec.rate_tps,
                                      spec.burst, spec.weight);
    if (!pushed.ok() && result.ok()) result = pushed;
  }
  return result;
}

qos::QuotaSpec ClusterController::DatabaseQuota(
    const std::string& db_name) const {
  qos::QuotaSpec spec;
  (void)catalog_.With(db_name,
                      [&](const catalog::TenantRecord& record) {
                        if (record.has_quota) spec = record.quota;
                      });
  return spec;
}

// --- Routing ---

std::vector<int> ClusterController::AliveReplicasLocked(
    const std::vector<int>& replicas) const {
  std::vector<int> alive;
  for (int id : replicas) {
    if (!machines_[id]->failed()) alive.push_back(id);
  }
  return alive;
}

std::vector<int> ClusterController::AliveReplicas(
    const std::vector<int>& replicas) const {
  platform::Guard lock(mu_);
  return AliveReplicasLocked(replicas);
}

Result<int> ClusterController::PickReadMachine(const std::string& db_name,
                                               int sticky) {
  std::vector<int> replicas;
  int primary_offset = 0;
  Status found = catalog_.With(
      db_name, [&](const catalog::TenantRecord& record) {
        replicas = record.replicas;
        primary_offset = record.primary_offset;
      });
  MTDB_RETURN_IF_ERROR(found);
  std::vector<int> targets = AliveReplicas(replicas);
  if (targets.empty()) {
    return Status::Unavailable("no alive replica of " + db_name);
  }
  // An explicit pin overrides the routing policy. Option 2 sets one after
  // its first read; snapshot transactions set one under EVERY policy,
  // because their snapshot timestamp is engine-local — one read routed to a
  // second replica would graft an unrelated snapshot onto the transaction
  // (observable as a torn snapshot: a cycle entering and leaving the
  // read-only txn through the same writer).
  if (sticky >= 0 && std::count(targets.begin(), targets.end(), sticky) > 0) {
    return sticky;
  }
  switch (options_.read_option) {
    case ReadRoutingOption::kPerDatabase:
      // A fixed replica per database; the round-robin offset spreads the
      // per-database primaries across machines so Option 1 does not
      // concentrate all read load on a few machines.
      return targets[primary_offset % static_cast<int>(targets.size())];
    case ReadRoutingOption::kPerTransaction:
    case ReadRoutingOption::kPerOperation:
      return targets[round_robin_.fetch_add(1) % targets.size()];
  }
  return Status::Internal("bad read option");
}

Result<std::vector<int>> ClusterController::WriteTargets(
    const std::string& db_name, const std::string& table) {
  RouteSnapshot snap;
  bool rejected = false;
  Status found = catalog_.With(
      db_name, [&](catalog::TenantRecord& record) {
        if (record.copy.active) {
          // Algorithm 1: reject writes to the table being copied ("*" =
          // whole database during coarse-granularity copying).
          if (record.copy.in_progress == "*" ||
              record.copy.in_progress == table) {
            record.rejected_writes++;
            rejected = true;
            return;
          }
          snap.copy_active = true;
          snap.copy_target = record.copy.target_machine;
          snap.copy_target_writable =
              record.copy.copied_tables.count(table) > 0;
        }
        snap.replicas = record.replicas;
        record.writes_in_flight[table]++;
      });
  MTDB_RETURN_IF_ERROR(found);
  if (rejected) {
    return Status::Rejected("table " + table + " of " + db_name +
                            " is being copied");
  }
  std::vector<int> targets;
  {
    platform::Guard lock(mu_);
    targets = AliveReplicasLocked(snap.replicas);
    if (snap.copy_active && snap.copy_target_writable &&
        !machines_[snap.copy_target]->failed()) {
      targets.push_back(snap.copy_target);
    }
  }
  if (targets.empty()) {
    EndWrite(db_name, table);
    return Status::Unavailable("no alive replica of " + db_name);
  }
  return targets;
}

void ClusterController::EndWrite(const std::string& db_name,
                                 const std::string& table) {
  // The tenant may have been dropped, or dropped and created again, while
  // the write was in flight.
  (void)catalog_.With(db_name, [&table](catalog::TenantRecord& record) {
    auto it = record.writes_in_flight.find(table);
    if (it != record.writes_in_flight.end() && --it->second == 0) {
      record.writes_in_flight.erase(it);
    }
  });
}

int64_t ClusterController::WritesInFlight(const std::string& db_name,
                                          const std::string& table) const {
  int64_t count = 0;
  (void)catalog_.With(db_name, [&](const catalog::TenantRecord& record) {
    for (const auto& [name, writes] : record.writes_in_flight) {
      if (table == "*" || name == table) count += writes;
    }
  });
  return count;
}

void ClusterController::WaitForQuiescentWrites(const std::string& db_name,
                                               const std::string& table) const {
  while (WritesInFlight(db_name, table) > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(kQuiescencePollUs));
  }
}

// --- Process pair ---

void ClusterController::LogCommitDecision(uint64_t txn_id) {
  platform::Guard lock(mu_);
  backup_.commit_decisions.insert(txn_id);
  obs::GaugeAdd(m_2pc_pending_, 1);
}

void ClusterController::ForgetCommitDecision(uint64_t txn_id) {
  platform::Guard lock(mu_);
  backup_.commit_decisions.erase(txn_id);
  obs::GaugeAdd(m_2pc_pending_, -1);
  decisions_cv_.NotifyAll();
}

void ClusterController::SettleCommitDecisions() const {
  platform::UniqueLock lock(mu_);
  while (!backup_.commit_decisions.empty()) decisions_cv_.Wait(lock);
}

void ClusterController::SimulateControllerFailover() {
  // 1. The primary is gone: connections it managed are dropped. Bumping the
  // epoch invalidates every outstanding Connection.
  epoch_.fetch_add(1);
  // 2. The backup takes over and cleans up transactions in transit, using
  // the mirrored commit-decision log: prepared transactions with a logged
  // decision are committed, everything else is rolled back. The backup has
  // no sessions to the machines — it interrogates and resolves them through
  // fresh control-plane RPCs.
  std::vector<int> alive;
  std::set<uint64_t> decisions;
  {
    platform::Guard lock(mu_);
    for (const auto& m : machines_) {
      if (!m->failed()) alive.push_back(m->id());
    }
    decisions = backup_.commit_decisions;
  }
  // The primary's calls still in flight die with it: their deadlines must
  // not declare a machine failed after the backup has resolved their work.
  client_->AbandonArmedCalls();
  for (int id : alive) {
    auto prepared = client_->ListPrepared(id);
    if (prepared.ok()) {
      for (uint64_t txn : *prepared) {
        if (decisions.count(txn) > 0) {
          (void)client_->CommitPrepared(id, txn);
        } else {
          (void)client_->Abort(id, txn);
        }
      }
    }
    auto active = client_->ListActive(id);
    if (active.ok()) {
      for (uint64_t txn : *active) {
        (void)client_->Abort(id, txn);
      }
    }
  }
}

// --- Introspection ---

int64_t ClusterController::rejected_writes(const std::string& db_name) const {
  int64_t count = 0;
  (void)catalog_.With(db_name,
                      [&](const catalog::TenantRecord& record) {
                        count = record.rejected_writes;
                      });
  return count;
}

int64_t ClusterController::total_rejected_writes() const {
  int64_t total = 0;
  for (const std::string& db_name : catalog_.Names()) {
    (void)catalog_.With(db_name,
                        [&](const catalog::TenantRecord& record) {
                          total += record.rejected_writes;
                        });
  }
  return total;
}

int64_t ClusterController::total_deadlocks() const {
  platform::Guard lock(mu_);
  int64_t total = 0;
  for (const auto& m : machines_) {
    total += m->engine()->lock_manager().deadlock_count();
  }
  return total;
}

std::vector<std::vector<CommittedTxnRecord>>
ClusterController::CollectHistories() const {
  SettleCommitDecisions();
  std::vector<std::shared_ptr<Engine>> engines;
  {
    platform::Guard lock(mu_);
    for (const auto& m : machines_) engines.push_back(m->engine());
  }
  std::vector<std::vector<CommittedTxnRecord>> histories;
  for (const auto& engine : engines) {
    histories.push_back(engine->GetHistory());
  }
  return histories;
}

analysis::DsgReport ClusterController::CheckClusterSerializability() const {
  return analysis::AuditHistories(CollectHistories());
}

void ClusterController::SetLatencyInjector(LatencyInjector injector) {
  platform::Guard lock(injector_mu_);
  latency_injector_ = std::move(injector);
  injector_installed_.store(latency_injector_ != nullptr,
                            std::memory_order_release);
}

int64_t ClusterController::InjectedLatency(const std::string& label,
                                           bool is_write,
                                           int machine_id) const {
  if (!injector_installed_.load(std::memory_order_acquire)) return 0;
  LatencyInjector injector;
  {
    platform::Guard lock(injector_mu_);
    injector = latency_injector_;
  }
  return injector ? injector(label, is_write, machine_id) : 0;
}

// ===== Connection =====

class Connection::Backoff {
 public:
  // The budget starts now.
  explicit Backoff(Connection* connection)
      : connection_(connection),
        deadline_us_(NowMicros() +
                     std::max<int64_t>(connection->controller_->options()
                                           .throttle_retry.budget_us,
                                       0)) {}

  // Sleeps before the next retry: the current step (1 ms, doubling to a
  // 100 ms cap) or the machine's retry_after_us hint if longer, capped too,
  // plus up to 50% jitter. Returns false without sleeping when that wait
  // would overrun the budget.
  bool Wait(int64_t retry_after_us) {
    int64_t wait_us =
        std::min(std::max(retry_after_us, backoff_us_), kMaxBackoffUs);
    wait_us += static_cast<int64_t>(connection_->rng_.Uniform(
        static_cast<uint64_t>(wait_us / 2 + 1)));
    if (NowMicros() + wait_us > deadline_us_) return false;
    ClusterController* controller = connection_->controller_;
    obs::Increment(controller->m_backoff_);
    obs::Observe(controller->m_backoff_wait_us_, wait_us);
    std::this_thread::sleep_for(std::chrono::microseconds(wait_us));
    backoff_us_ = std::min(backoff_us_ * 2, kMaxBackoffUs);
    return true;
  }

 private:
  Connection* connection_;
  int64_t deadline_us_;
  int64_t backoff_us_ = kInitialBackoffUs;
};

struct Connection::CommitFanOut {
  CommitFanOut(Connection* connection, int participants)
      : controller(connection->controller_),
        txn_id(connection->txn_id_),
        decided_us(NowMicros()),
        pin(std::move(connection->tenant_ref_)),
        owner(connection->phase_two_),
        outstanding(participants) {}

  // One participant answered COMMIT PREPARED. Whatever the reply says, the
  // decision has done its job there: the reply is a durable ack, a deadline
  // (which declared the machine failed first), or an error the decision
  // cannot mend (a failover already resolved the transaction, or the
  // participant's log died).
  void Ack() {
    if (outstanding.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    obs::Observe(controller->m_2pc_commit_us_, NowMicros() - decided_us);
    pin.Release();
    // Forgetting the decision may let ~ClusterController proceed, so nothing
    // after it touches the controller.
    controller->ForgetCommitDecision(txn_id);
    platform::Guard lock(owner->mu);
    if (--owner->pending == 0) owner->cv.NotifyAll();
  }

  ClusterController* const controller;
  const uint64_t txn_id;
  const int64_t decided_us;
  catalog::TenantCatalog::TenantRef pin;
  const std::shared_ptr<PhaseTwoCount> owner;
  std::atomic<int> outstanding;
};

Connection::Connection(ClusterController* controller, std::string db_name,
                       uint64_t epoch)
    : controller_(controller), db_name_(std::move(db_name)), epoch_(epoch) {}

Connection::~Connection() {
  if (active_) {
    (void)AbortInternal(Status::Aborted("connection closed mid-transaction"));
  }
  // Phase 2 of a committed transaction may still be in flight on these
  // sessions. Their channels go with them (a closing TCP channel fails its
  // pending replies), so wait for every reply first.
  platform::UniqueLock lock(phase_two_->mu);
  while (phase_two_->pending > 0) phase_two_->cv.Wait(lock);
}

net::MachineClient::Session* Connection::SessionFor(int machine_id) {
  auto it = sessions_.find(machine_id);
  if (it == sessions_.end()) {
    it = sessions_
             .emplace(machine_id,
                      controller_->client_->OpenSession(machine_id))
             .first;
  }
  return it->second.get();
}

void Connection::Poison(const Status& status) {
  platform::Guard lock(poison_mu_);
  if (poison_.ok()) poison_ = status;
}

Status Connection::poison_status() const {
  platform::Guard lock(poison_mu_);
  return poison_;
}

Status Connection::Begin(bool read_only) {
  if (active_) {
    return Status::FailedPrecondition("transaction already open");
  }
  return BeginInternal(read_only);
}

Status Connection::BeginInternal(bool read_only) {
  if (epoch_ != controller_->epoch()) {
    return Status::Unavailable("connection lost: controller failover");
  }
  // Pin the tenant BEFORE minting any transaction state. AcquireForTxn
  // atomically refuses the pin while the tenant's copy is frozen (a
  // migration cutover, or an aborting copy draining before it drops the
  // target), so every transaction holding a pin is visible to the drain and
  // no transaction can slip between the drain check and the replica swap.
  // A refused begin backs off and retries — throttled, never failed — with
  // the same policy as QoS admission; cutovers last milliseconds, far under
  // the retry budget.
  bool cutover = false;
  catalog::TenantCatalog::TenantRef ref =
      controller_->catalog_.AcquireForTxn(db_name_, &cutover);
  if (cutover) {
    Backoff backoff(this);
    while (cutover) {
      if (!backoff.Wait(/*retry_after_us=*/0)) {
        return Status::ResourceExhausted("tenant " + db_name_ +
                                         " is frozen for a copy cutover");
      }
      ref = controller_->catalog_.AcquireForTxn(db_name_, &cutover);
    }
  }
  txn_id_ = controller_->NextTxnId();
  active_ = true;
  // The pin lives for the transaction's lifetime: a pinned tenant's
  // resident catalog state (prepared registrations, plan caches behind it)
  // is never evicted mid-transaction.
  tenant_ref_ = std::move(ref);
  wrote_ = false;
  read_only_ = read_only;
  snapshot_ts_ = 0;
  snapshot_read_done_ = false;
  sticky_read_machine_ = -1;
  begun_machines_.clear();
  outstanding_.clear();
  {
    platform::Guard lock(poison_mu_);
    poison_ = Status::OK();
  }
  txn_start_us_ = NowMicros();
  trace_id_ = obs::TraceCollector::Global().StartTrace(txn_id_);
  return Status::OK();
}

void Connection::FinishTxn(bool committed) {
  active_ = false;
  (committed ? controller_->committed_ : controller_->aborted_)
      .fetch_add(1, std::memory_order_relaxed);
  tenant_ref_.Release();
  int64_t latency_us = NowMicros() - txn_start_us_;
  obs::Increment(committed ? controller_->m_txn_commit_
                           : controller_->m_txn_abort_);
  obs::Observe(controller_->m_txn_latency_us_, latency_us);
  controller_->load_monitor_.RecordTxn(db_name_, committed);
  obs::TraceCollector::Global().FinishTrace(trace_id_, committed);
  trace_id_ = 0;
}

net::RpcRequest Connection::TxnRequest(net::RpcType type) const {
  net::RpcRequest request;
  request.type = type;
  request.txn_id = txn_id_;
  request.trace_id = trace_id_;
  return request;
}

net::RpcRequest Connection::StatementRequest(const std::string& sql,
                                             const std::vector<Value>& params,
                                             bool is_write,
                                             int machine_id) const {
  net::RpcRequest request = TxnRequest(net::RpcType::kExecute);
  request.db_name = db_name_;
  request.sql = sql;
  request.params = params;
  request.debug_delay_us =
      controller_->InjectedLatency(label_, is_write, machine_id);
  return request;
}

net::RpcResponse Connection::CallBeginning(int machine_id,
                                           net::RpcRequest request) {
  request.db_name = db_name_;
  request.read_only = read_only_;
  net::MachineClient::Session* session = SessionFor(machine_id);
  Backoff backoff(this);
  for (;;) {
    net::RpcResponse response = session->Call(request);
    if (response.code != StatusCode::kResourceExhausted) {
      if (response.code != StatusCode::kUnavailable) {
        begun_machines_.insert(machine_id);
        if (read_only_) snapshot_ts_ = response.snapshot_ts;
      }
      return response;
    }
    // Throttled: nothing ran. The machine is alive and answering — this must
    // never feed the failure/recovery path (failover would dogpile the
    // tenant's load onto a replica). Retry the SAME machine after the
    // backoff, or surface the throttle once the budget is spent.
    if (!backoff.Wait(response.retry_after_us)) return response;
  }
}

Status Connection::EnsureBegun(int machine_id) {
  if (begun_machines_.count(machine_id) > 0) return Status::OK();
  return CallBeginning(machine_id, TxnRequest(net::RpcType::kBegin))
      .ToStatus();
}

std::vector<std::pair<int, Status>> Connection::CallAll(
    const std::vector<int>& machines, net::RpcType type) {
  struct Replies {
    explicit Replies(size_t n) : expected(n) {}
    const size_t expected;
    platform::Mutex mu{"cluster/Connection::Replies::mu"};
    platform::CondVar cv;
    std::vector<std::pair<int, Status>> statuses MTDB_GUARDED_BY(mu);
  };
  auto replies = std::make_shared<Replies>(machines.size());
  for (int machine_id : machines) {
    net::RpcRequest request = TxnRequest(type);
    request.may_run_inline = true;
    SessionFor(machine_id)
        ->CallAsync(std::move(request),
                    [replies, machine_id](net::RpcResponse response) {
                      bool all = false;
                      {
                        platform::Guard lock(replies->mu);
                        replies->statuses.emplace_back(machine_id,
                                                       response.ToStatus());
                        all = replies->statuses.size() == replies->expected;
                      }
                      if (all) replies->cv.NotifyAll();
                    });
  }
  platform::UniqueLock lock(replies->mu);
  while (replies->statuses.size() < replies->expected) replies->cv.Wait(lock);
  return std::move(replies->statuses);
}

Result<sql::QueryResult> Connection::Execute(const std::string& sql,
                                             const std::vector<Value>& params) {
  // Parse for routing only (read vs. write, which table), through the
  // controller's shared parse cache: the statement itself travels to the
  // machines as SQL text.
  MTDB_ASSIGN_OR_RETURN(std::shared_ptr<const sql::Statement> stmt,
                        controller_->statements_.Parse(sql));
  // EXPLAIN never mutates — whatever statement it wraps, only the plan text
  // comes back — so it routes like a read.
  if (stmt->explain || IsReadStatement(*stmt)) {
    return ExecuteStatement(sql, /*write_table=*/nullptr, params);
  }
  const std::string* table = WriteTargetTable(*stmt);
  if (table == nullptr) {
    return Status::InvalidArgument(
        "DDL must go through ClusterController::ExecuteDdl");
  }
  return ExecuteStatement(sql, table, params);
}

Result<std::shared_ptr<PreparedStatement>> Connection::Prepare(
    const std::string& sql) {
  return controller_->PrepareStatement(db_name_, sql);
}

Result<sql::QueryResult> Connection::ExecutePrepared(
    const std::shared_ptr<PreparedStatement>& stmt,
    const std::vector<Value>& params) {
  if (stmt == nullptr) {
    return Status::InvalidArgument("null prepared statement");
  }
  if (stmt->db_name_ != db_name_) {
    return Status::InvalidArgument("prepared statement belongs to database " +
                                   stmt->db_name_);
  }
  return ExecuteStatement(stmt->sql_,
                          stmt->is_read_ ? nullptr : &stmt->write_table_,
                          params);
}

Result<sql::QueryResult> Connection::ExecuteStatement(
    const std::string& sql, const std::string* write_table,
    const std::vector<Value>& params) {
  if (active_) return ExecuteInTxn(sql, write_table, params);
  // Autocommit: run the statement in its own transaction.
  MTDB_RETURN_IF_ERROR(BeginInternal());
  auto result = ExecuteInTxn(sql, write_table, params);
  if (!result.ok()) {
    (void)AbortInternal(result.status());
    return result;
  }
  Status commit_status = CommitInternal();
  if (!commit_status.ok()) return commit_status;
  return result;
}

Result<sql::QueryResult> Connection::ExecuteInTxn(
    const std::string& sql, const std::string* write_table,
    const std::vector<Value>& params) {
  if (epoch_ != controller_->epoch()) {
    return Status::Unavailable("connection lost: controller failover");
  }
  // Late write failures from aggressive mode poison subsequent operations.
  Status poison = poison_status();
  if (!poison.ok()) {
    return Status::Aborted("transaction poisoned: " + poison.ToString());
  }
  return write_table == nullptr ? ExecuteRead(sql, params)
                                : ExecuteWrite(sql, *write_table, params);
}

Result<sql::QueryResult> Connection::ExecuteRead(
    const std::string& sql, const std::vector<Value>& params) {
  // Retry against other replicas when the chosen one turns out to be dead
  // (the paper: "the cluster controller continues to process client database
  // requests using the available machines").
  size_t attempts = controller_->machine_count() + 1;
  Status last = Status::Unavailable("no replica tried");
  for (size_t attempt = 0; attempt < attempts; ++attempt) {
    MTDB_ASSIGN_OR_RETURN(
        int machine_id,
        controller_->PickReadMachine(db_name_, sticky_read_machine_));
    // Snapshot transactions pin every read to one replica regardless of the
    // configured read option: the snapshot timestamp is engine-local, so
    // reads spread across replicas would observe unrelated snapshots.
    if (read_only_ || controller_->options().read_option ==
                          ReadRoutingOption::kPerTransaction) {
      sticky_read_machine_ = machine_id;
    }
    net::RpcRequest request =
        StatementRequest(sql, params, /*is_write=*/false, machine_id);
    // The transaction's first request to this machine carries the begin:
    // one round trip instead of a kBegin and then the read.
    request.begin = begun_machines_.count(machine_id) == 0;
    net::RpcResponse response =
        request.begin ? CallBeginning(machine_id, std::move(request))
                      : SessionFor(machine_id)->Call(std::move(request));
    if (response.ok()) {
      snapshot_read_done_ = snapshot_read_done_ || read_only_;
      return std::move(response.result);
    }
    Status status = response.ToStatus();
    if (status.code() == StatusCode::kUnavailable) {
      begun_machines_.erase(machine_id);
      if (sticky_read_machine_ == machine_id) sticky_read_machine_ = -1;
      if (read_only_ && snapshot_read_done_) {
        // The pinned replica died mid-snapshot. Re-pinning to another
        // replica would splice a second, unrelated snapshot onto reads
        // already returned from the first — abort instead.
        Poison(status);
        return status;
      }
      last = status;
      obs::Increment(controller_->m_read_retry_);
      continue;  // pick another replica
    }
    // A throttled begin (kResourceExhausted past the retry budget) is NOT
    // replica failure: retrying elsewhere would route the over-quota
    // tenant's load onto its other replicas. Surface it, like any other
    // failed read.
    Poison(status);
    return status;
  }
  Poison(last);
  return last;
}

Result<sql::QueryResult> Connection::ExecuteWrite(
    const std::string& sql, const std::string& table,
    const std::vector<Value>& params) {
  if (read_only_) {
    Status status = Status::FailedPrecondition(
        "read-only transaction cannot execute writes");
    Poison(status);
    return status;
  }
  auto targets_or = controller_->WriteTargets(db_name_, table);
  if (!targets_or.ok()) {
    // Algorithm 1 line 11: reject the operation and abort the transaction.
    if (targets_or.status().code() == StatusCode::kRejected) {
      (void)AbortInternal(targets_or.status());
    } else {
      Poison(targets_or.status());
    }
    return targets_or.status();
  }
  const std::vector<int>& targets = *targets_or;
  wrote_ = true;

  auto pending = std::make_shared<PendingWrite>();
  pending->outstanding = static_cast<int>(targets.size());
  net::ResponseHandler handler = MakeWriteHandler(pending, table);

  // A conservative write waits for every replica, so its last request may
  // run on this thread. An aggressive one stays fully asynchronous: the
  // acknowledgement must be able to overtake a replica still running it.
  bool waits = controller_->options().write_policy ==
               WriteAckPolicy::kConservative;
  for (size_t i = 0; i < targets.size(); ++i) {
    int machine_id = targets[i];
    // A replica that cannot be begun (dead, or throttled past the retry
    // budget) counts as a failed replica RPC: feed the status through the
    // shared handler so the PendingWrite stays balanced. The begin is its
    // own request because an aggressive ack may come before every replica
    // answers, too early to learn that one refused it.
    Status begun = EnsureBegun(machine_id);
    if (!begun.ok()) {
      handler(net::RpcResponse::FromStatus(begun));
      continue;
    }
    net::RpcRequest request =
        StatementRequest(sql, params, /*is_write=*/true, machine_id);
    request.may_run_inline = waits && i + 1 == targets.size();
    SessionFor(machine_id)->CallAsync(std::move(request), handler);
  }
  return FinishWrite(std::move(pending));
}

net::ResponseHandler Connection::MakeWriteHandler(
    std::shared_ptr<PendingWrite> pending, std::string table) {
  // The MachineClient guarantees this handler fires exactly once per call
  // (reply or deadline), so the write's in-flight count cannot leak.
  return [pending = std::move(pending), controller = controller_,
          db = db_name_, table = std::move(table)](net::RpcResponse response) {
    Status status = response.ToStatus();
    bool last = false;
    {
      platform::Guard lock(pending->mu);
      pending->outstanding--;
      last = pending->outstanding == 0;
      if (status.ok()) {
        if (!pending->have_first) {
          pending->have_first = true;
          pending->first_result = std::move(response.result);
        }
        pending->succeeded++;
      } else if (status.code() == StatusCode::kUnavailable) {
        pending->unavailable++;
      } else if (pending->first_error.ok()) {
        pending->first_error = status;
      }
      pending->cv.NotifyAll();
    }
    if (last) controller->EndWrite(db, table);
  };
}

Result<sql::QueryResult> Connection::FinishWrite(
    std::shared_ptr<PendingWrite> pending) {
  platform::UniqueLock lock(pending->mu);
  if (controller_->options().write_policy == WriteAckPolicy::kConservative) {
    // Wait for *all* replicas before acknowledging (Theorem 2).
    while (!pending->AllDone()) pending->cv.Wait(lock);
    if (!pending->first_error.ok()) {
      Status error = pending->first_error;
      lock.unlock();
      Poison(error);
      return error;
    }
    if (pending->succeeded == 0) {
      Status error = Status::Unavailable("write failed on every replica");
      lock.unlock();
      Poison(error);
      return error;
    }
    return std::move(pending->first_result);
  }
  // Aggressive: acknowledge as soon as one replica succeeds; keep tracking
  // the rest asynchronously (their failure poisons the transaction).
  while (!pending->have_first && !pending->AllDone()) pending->cv.Wait(lock);
  if (pending->have_first) {
    sql::QueryResult result = pending->first_result;
    bool all_done = pending->AllDone();
    Status late_error = pending->first_error;
    lock.unlock();
    if (!all_done) {
      outstanding_.push_back(pending);
    } else if (!late_error.ok()) {
      Poison(late_error);
    }
    return result;
  }
  // Every replica finished without a success.
  Status error = !pending->first_error.ok()
                     ? pending->first_error
                     : Status::Unavailable("write failed on every replica");
  lock.unlock();
  Poison(error);
  return error;
}

Status Connection::WaitOutstandingWrites() {
  Status result = Status::OK();
  for (const auto& pending : outstanding_) {
    platform::UniqueLock lock(pending->mu);
    while (!pending->AllDone()) pending->cv.Wait(lock);
    if (!pending->first_error.ok() && result.ok()) {
      result = pending->first_error;
    }
    if (pending->succeeded == 0 && result.ok()) {
      result = Status::Unavailable("write lost on every replica");
    }
  }
  outstanding_.clear();
  if (!result.ok()) Poison(result);
  return result;
}

Status Connection::Commit() {
  if (!active_) return Status::FailedPrecondition("no open transaction");
  return CommitInternal();
}

Status Connection::CommitInternal() {
  if (epoch_ != controller_->epoch()) {
    // The backup rolled the transaction back when it took over; all that is
    // left is to count the abort.
    FinishTxn(/*committed=*/false);
    return Status::Unavailable("connection lost: controller failover");
  }
  // Conservative controllers have no outstanding writes (each Execute waited
  // for all replicas). Aggressive controllers deliberately do NOT wait here:
  // PREPARE is queued behind any still-running write on each replica's
  // session channel, reproducing the paper's Section 3.1 interleaving where
  // a transaction enters the PREPARE phase while a write is still executing
  // on another machine. Write failures are checked after the votes, before
  // the commit decision.
  Status poison = poison_status();
  if (!poison.ok()) {
    return AbortInternal(poison);
  }

  uint64_t txn = txn_id_;
  std::vector<int> participants(begun_machines_.begin(),
                                begun_machines_.end());

  if (!wrote_) {
    // Read-only: single-phase commit on every participant.
    (void)CallAll(participants, net::RpcType::kCommit);
    FinishTxn(/*committed=*/true);
    return Status::OK();
  }

  // Phase 1: PREPARE everywhere. A failed machine is dropped from the
  // participant set (its replica is lost regardless); any other failure
  // vetoes the commit. A machine that never answers surfaces here as
  // kUnavailable via the RPC deadline — a lost PREPARE reply cannot hang
  // the coordinator.
  int64_t prepare_start_us = NowMicros();
  std::vector<std::pair<int, Status>> votes =
      CallAll(participants, net::RpcType::kPrepare);
  obs::Observe(controller_->m_2pc_prepare_us_, NowMicros() - prepare_start_us);
  std::vector<int> prepared;
  Status veto = Status::OK();
  for (const auto& [machine_id, status] : votes) {
    if (status.ok()) {
      prepared.push_back(machine_id);
    } else if (status.code() != StatusCode::kUnavailable && veto.ok()) {
      veto = status;
    }
  }
  // PREPARE ran after every queued write on each session channel, so all
  // replicated writes have resolved by now; a failure on any replica vetoes
  // the commit (this is the "asynchronously keeps track of whether the
  // writes in the other machines failed" bookkeeping of the aggressive
  // controller).
  Status late_write_failure = WaitOutstandingWrites();
  if (veto.ok() && !late_write_failure.ok()) veto = late_write_failure;
  if (veto.ok()) {
    Status repoison = poison_status();
    if (!repoison.ok()) veto = repoison;
  }
  if (!veto.ok() || prepared.empty()) {
    return AbortInternal(veto.ok() ? Status::Unavailable(
                                         "no replica survived to prepare")
                                   : veto);
  }

  // Decision point: mirrored to the backup before phase 2 so a controller
  // failover after this line still commits the transaction. Every PREPARE
  // is durable, so the decision is final: the client hears it now, and
  // phase 2 runs behind the answer (DESIGN.md §15).
  controller_->LogCommitDecision(txn);
  SendCommitPrepared(prepared);
  FinishTxn(/*committed=*/true);
  return Status::OK();
}

void Connection::SendCommitPrepared(const std::vector<int>& prepared) {
  auto fan_out =
      std::make_shared<CommitFanOut>(this, static_cast<int>(prepared.size()));
  {
    platform::Guard lock(phase_two_->mu);
    ++phase_two_->pending;
  }
  for (int machine_id : prepared) {
    // In-process, on an idle channel (the usual case after the votes), the
    // engine applies the commit on this thread before Commit() returns; the
    // reply follows from the log once the COMMIT record is durable. Either
    // way the session's next request runs after it on that machine, so the
    // client reads its own writes.
    net::RpcRequest request = TxnRequest(net::RpcType::kCommitPrepared);
    request.may_run_inline = true;
    SessionFor(machine_id)->CallAsync(
        std::move(request),
        [fan_out](net::RpcResponse /*reply*/) { fan_out->Ack(); });
  }
}

Status Connection::Abort() {
  if (!active_) return Status::FailedPrecondition("no open transaction");
  return AbortInternal(Status::OK());
}

Status Connection::AbortInternal(Status reason) {
  // Outstanding writes are queued on the same session channels as the aborts
  // below, so FIFO ordering guarantees the abort runs after them on each
  // machine.
  (void)WaitOutstandingWrites();
  std::vector<int> participants(begun_machines_.begin(),
                                begun_machines_.end());
  (void)CallAll(participants, net::RpcType::kAbort);
  FinishTxn(/*committed=*/false);
  if (!reason.ok()) {
    return Status::Aborted("transaction aborted: " + reason.ToString());
  }
  return Status::OK();
}

}  // namespace mtdb
