#ifndef MTDB_CLUSTER_CLUSTER_CONTROLLER_H_
#define MTDB_CLUSTER_CLUSTER_CONTROLLER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/history.h"
#include "src/cluster/catalog/prepared_statement.h"
#include "src/cluster/catalog/tenant_catalog.h"
#include "src/cluster/machine.h"
#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/common/result.h"
#include "src/net/inproc_transport.h"
#include "src/net/machine_client.h"
#include "src/net/machine_service.h"
#include "src/net/transport.h"
#include "src/obs/load_monitor.h"
#include "src/obs/metrics.h"
#include "src/platform/mutex.h"
#include "src/qos/qos.h"
#include "src/sql/executor.h"
#include "src/sql/statement_cache.h"

namespace mtdb {

// The three read-routing options of Section 3.1.
enum class ReadRoutingOption {
  // Option 1: all reads for a database go to the same (primary) replica.
  kPerDatabase = 1,
  // Option 2: all reads of one transaction go to one replica; different
  // transactions may use different replicas.
  kPerTransaction = 2,
  // Option 3: every read operation is routed independently.
  kPerOperation = 3,
};

// When the controller acknowledges a replicated write to the client.
enum class WriteAckPolicy {
  // Wait for every replica to finish the write (always serializable —
  // Theorem 2).
  kConservative,
  // Acknowledge after the first replica finishes; remaining replicas apply
  // asynchronously (non-serializable under Options 2/3 — Table 1).
  kAggressive,
};

// Connection-side reaction to a throttled (kResourceExhausted) begin — a
// kBegin, or a transaction's first read on a machine, which carries the
// begin: capped exponential backoff with jitter against the SAME machine. A
// throttled machine is alive and answering — it must not be failed over
// (that would dogpile the load onto a replica) and must never reach
// FailMachine, which is reserved for silence (RPC deadline expiry). The waits
// start at 1 ms and double up to a 100 ms cap.
struct ThrottleRetryPolicy {
  // Total time a transaction may spend backing off before the throttle
  // status surfaces to the caller. <= 0 disables retries (fail fast).
  int64_t budget_us = 2'000'000;
};

struct ClusterControllerOptions {
  ReadRoutingOption read_option = ReadRoutingOption::kPerDatabase;
  WriteAckPolicy write_policy = WriteAckPolicy::kConservative;
  int default_replicas = 2;
  ThrottleRetryPolicy throttle_retry;
  // Transport carrying every controller->machine interaction. nullptr means
  // the controller owns a net::InProcTransport wired to the machines it
  // creates with AddMachine; pass a net::TcpTransport (with endpoints
  // registered) to drive remote mtdbd processes instead.
  net::Transport* transport = nullptr;
  // Per-RPC deadline; expiry marks the silent machine failed.
  net::RpcOptions rpc;
  // Tenant-catalog sizing: how many tenants may keep resident (evictable)
  // state materialized at once, and the prepared-registration caps. The
  // defaults keep every tenant of a small cluster resident; bench/tests
  // shrink max_resident to exercise eviction.
  catalog::TenantCatalog::Options catalog{.name = "controller"};
};

class ClusterController;
class Connection;

// PreparedStatement (the cluster-level prepared statement shared per
// (database, sql) pair) lives with the rest of the per-tenant metadata in
// src/cluster/catalog/prepared_statement.h; re-exported here because the
// controller registers and routes them.

// A client database connection, handed out by the cluster controller (which
// is the connection manager: clients never talk to machines directly).
// Not thread-safe: one connection serves one client session.
//
// Usage: Begin / Execute* / Commit|Abort, or Execute outside a transaction
// for JDBC-style autocommit.
class Connection {
 public:
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const std::string& database() const { return db_name_; }

  // `read_only` opens the transaction in MVCC snapshot mode: reads are
  // served from a consistent snapshot without lock-manager traffic, every
  // write statement is rejected, and all reads are pinned to ONE replica
  // for the life of the transaction (snapshot timestamps are engine-local,
  // so spreading reads across replicas could mix inconsistent snapshots).
  // If the pinned replica dies after the first snapshot read, the
  // transaction aborts instead of failing over.
  Status Begin(bool read_only = false);
  Result<sql::QueryResult> Execute(const std::string& sql,
                                   const std::vector<Value>& params = {});
  // Plan-once/execute-many: prepares `sql` (shared registry — preparing the
  // same text twice returns the same statement) for later ExecutePrepared.
  Result<std::shared_ptr<PreparedStatement>> Prepare(const std::string& sql);
  // Runs a prepared statement with `params` bound to its '?' markers. The
  // same statement path as Execute, minus the controller's routing parse.
  Result<sql::QueryResult> ExecutePrepared(
      const std::shared_ptr<PreparedStatement>& stmt,
      const std::vector<Value>& params = {});
  Status Commit();
  Status Abort();
  bool in_transaction() const { return active_; }
  uint64_t current_txn_id() const { return txn_id_; }
  bool read_only() const { return read_only_; }
  // Snapshot timestamp assigned by the pinned replica's engine (0 until the
  // first operation of a read-only transaction reaches a machine).
  uint64_t snapshot_ts() const { return snapshot_ts_; }

  // Label used by the latency-injection test hook.
  void SetLabel(std::string label) { label_ = std::move(label); }

 private:
  friend class ClusterController;

  // Result of one replicated write: completion latch shared by all replica
  // RPC handlers.
  struct PendingWrite {
    platform::Mutex mu{"cluster/Connection::PendingWrite::mu"};
    platform::CondVar cv;
    int outstanding MTDB_GUARDED_BY(mu) = 0;
    int succeeded MTDB_GUARDED_BY(mu) = 0;
    int unavailable MTDB_GUARDED_BY(mu) = 0;
    bool have_first MTDB_GUARDED_BY(mu) = false;
    // first non-unavailable failure
    Status first_error MTDB_GUARDED_BY(mu);
    // result of the fastest success
    sql::QueryResult first_result MTDB_GUARDED_BY(mu);

    bool AllDone() const MTDB_REQUIRES(mu) { return outstanding == 0; }
  };

  // Paces one retry loop under the controller's ThrottleRetryPolicy.
  class Backoff;

  // This connection's committed transactions whose phase 2 still awaits a
  // participant's reply. Shared with the reply handlers, which may finish
  // after the connection is gone.
  struct PhaseTwoCount {
    platform::Mutex mu{"cluster/Connection::PhaseTwoCount::mu"};
    platform::CondVar cv;
    int pending MTDB_GUARDED_BY(mu) = 0;
  };
  // Phase 2 of one committed transaction, shared by its COMMIT PREPARED
  // reply handlers; the last reply retires it.
  struct CommitFanOut;

  Connection(ClusterController* controller, std::string db_name,
             uint64_t epoch);

  Status BeginInternal(bool read_only = false);
  // The one statement path behind Execute and ExecutePrepared, which differ
  // only in where the routing facts come from. `write_table` is null for
  // reads (and EXPLAIN); a write fans out to every replica. Outside a
  // transaction the statement runs in its own (autocommit) transaction.
  // Machines receive the SQL text (plus params) and plan it themselves,
  // exactly like a DBMS behind a wire protocol.
  Result<sql::QueryResult> ExecuteStatement(const std::string& sql,
                                            const std::string* write_table,
                                            const std::vector<Value>& params);
  Result<sql::QueryResult> ExecuteInTxn(const std::string& sql,
                                        const std::string* write_table,
                                        const std::vector<Value>& params);
  Result<sql::QueryResult> ExecuteRead(const std::string& sql,
                                       const std::vector<Value>& params);
  Result<sql::QueryResult> ExecuteWrite(const std::string& sql,
                                        const std::string& table,
                                        const std::vector<Value>& params);
  // Replica-fanout plumbing of ExecuteWrite: the exactly-once completion
  // handler and the policy-dependent wait.
  net::ResponseHandler MakeWriteHandler(std::shared_ptr<PendingWrite> pending,
                                        std::string table);
  Result<sql::QueryResult> FinishWrite(std::shared_ptr<PendingWrite> pending);
  // Waits for all asynchronously outstanding writes (aggressive mode).
  Status WaitOutstandingWrites();
  Status CommitInternal();
  Status AbortInternal(Status reason);
  // A request of this transaction: `type` and txn_id only.
  net::RpcRequest TxnRequest(net::RpcType type) const;
  // A kExecute of `sql` on `machine_id`, with the injected test latency.
  net::RpcRequest StatementRequest(const std::string& sql,
                                   const std::vector<Value>& params,
                                   bool is_write, int machine_id) const;
  // Sends `request`, which begins the transaction on `machine_id` (a kBegin,
  // or a read carrying RpcRequest::begin), and waits for the reply. The
  // reply carries the QoS admission verdict: a refusal (kResourceExhausted)
  // is retried against the same machine with capped exponential backoff +
  // jitter, honoring the wire-carried retry_after_us hint, until the
  // controller's throttle_retry budget runs out, and is then returned. The
  // machine joins begun_machines_ once a reply is neither a refusal nor
  // kUnavailable, so an abort also reaches a transaction that a failed
  // statement left behind.
  net::RpcResponse CallBeginning(int machine_id, net::RpcRequest request);
  // Ensures the engine-side transaction exists on machine m before a write:
  // a kBegin through CallBeginning, unless m has begun already.
  Status EnsureBegun(int machine_id);
  // Sends `type` for this transaction to every machine and waits for all
  // replies. Every request carries RpcRequest::may_run_inline: none of
  // these types blocks on a lock or a log, so in-process each runs on this
  // thread when its channel is idle. Returns each machine's reply status.
  std::vector<std::pair<int, Status>> CallAll(const std::vector<int>& machines,
                                              net::RpcType type);
  // Phase 2: sends COMMIT PREPARED to every prepared participant without
  // waiting. The last reply retires the logged decision, the tenant pin
  // and the mtdb_2pc_commit_us sample.
  void SendCommitPrepared(const std::vector<int>& prepared);
  net::MachineClient::Session* SessionFor(int machine_id);
  void Poison(const Status& status);
  Status poison_status() const;

  // Ends the transaction for the client: counts the commit or abort (the
  // controller's totals and mtdb_txn_*_total), records its latency and the
  // LoadMonitor feedback, and closes the trace.
  void FinishTxn(bool committed);

  ClusterController* controller_;
  std::string db_name_;
  uint64_t epoch_;
  std::string label_;

  bool active_ = false;
  uint64_t txn_id_ = 0;
  bool wrote_ = false;
  // Snapshot mode (see Begin). snapshot_ts_ arrives with the reply to the
  // first read on the pinned machine; snapshot_read_done_ flips on the first
  // successful read, after which replica failover is forbidden.
  bool read_only_ = false;
  uint64_t snapshot_ts_ = 0;
  bool snapshot_read_done_ = false;
  // Trace of the current transaction (0 outside transactions) and its start
  // time for the transaction latency histogram.
  uint64_t trace_id_ = 0;
  int64_t txn_start_us_ = 0;
  int sticky_read_machine_ = -1;  // Option 2 anchor for the current txn
  // Catalog pin held for the life of each transaction, phase 2 included
  // (a committed transaction hands it to its CommitFanOut): a tenant with
  // an in-flight transaction is never evicted from resident state, and a
  // copy's freeze drains it.
  catalog::TenantCatalog::TenantRef tenant_ref_;
  std::set<int> begun_machines_;
  // One RPC session (= ordered channel) per machine this connection talks
  // to — the strand-per-(connection,machine) of the pre-RPC controller,
  // now owned by the transport layer.
  std::map<int, std::unique_ptr<net::MachineClient::Session>> sessions_;
  std::vector<std::shared_ptr<PendingWrite>> outstanding_;
  // The destructor waits for it to drain, so no decision is retired by a
  // channel torn down under its COMMIT PREPARED.
  std::shared_ptr<PhaseTwoCount> phase_two_ =
      std::make_shared<PhaseTwoCount>();

  mutable platform::Mutex poison_mu_{"cluster/Connection::poison_mu"};
  Status poison_ MTDB_GUARDED_BY(poison_mu_);
  // Jitter source for throttle backoff (decorrelates retry storms across
  // connections).
  Random rng_{static_cast<uint64_t>(NowMicros()) ^
              reinterpret_cast<uintptr_t>(this)};
};

// The fault-tolerant cluster controller of Sections 2–3: connection manager,
// read-one-write-all replicator, 2PC coordinator, Algorithm-1 copy
// coordinator, and (with sla::*) SLA-driven placement driver. Runs as a
// process pair: 2PC commit decisions are mirrored synchronously to a
// hot-standby image, and SimulateControllerFailover() exercises the backup's
// takeover path.
//
// All transaction work reaches machines exclusively through net::MachineClient
// RPCs; the controller compiles against the RPC surface, not the engine.
// (Introspection used by tests/experiments — CollectHistories,
// total_deadlocks — reads the co-located engines directly and is the
// documented exception; it is meaningless over a remote transport.)
class ClusterController {
 public:
  explicit ClusterController(ClusterControllerOptions options = {});
  ~ClusterController();

  ClusterController(const ClusterController&) = delete;
  ClusterController& operator=(const ClusterController&) = delete;

  const ClusterControllerOptions& options() const { return options_; }

  // --- Machines ---
  int AddMachine(MachineOptions machine_options = MachineOptions());
  // Lock-free: every read statement calls it to bound its retries.
  size_t machine_count() const {
    return machine_count_.load(std::memory_order_acquire);
  }
  Machine* machine(int id) const;
  std::vector<int> MachineIds() const;

  // The RPC client carrying every controller->machine interaction.
  net::MachineClient* machine_client() const { return client_.get(); }
  // The controller-owned in-process transport; null when the caller supplied
  // a transport in the options. Test hook for fault injection.
  net::InProcTransport* inproc_transport() const {
    return owned_transport_.get();
  }

  // --- Database lifecycle ---
  // Places `num_replicas` replicas on the least-loaded distinct machines.
  Status CreateDatabase(const std::string& db_name, int num_replicas = 0);
  // Explicit placement (used by SLA-driven placement and tests).
  Status CreateDatabaseOn(const std::string& db_name,
                          const std::vector<int>& machine_ids);
  Status DropDatabase(const std::string& db_name);
  std::vector<int> ReplicasOf(const std::string& db_name) const;
  std::vector<std::string> DatabaseNames() const;

  // DDL / bulk loading applied to every replica (run outside client txns,
  // before the database goes live).
  Status ExecuteDdl(const std::string& db_name, const std::string& sql);
  Status BulkLoad(const std::string& db_name, const std::string& table,
                  const std::vector<Row>& rows);

  // --- Connections ---
  std::unique_ptr<Connection> Connect(const std::string& db_name);

  // --- Prepared statements ---
  // Derives `sql`'s routing facts and registers it in the shared
  // (database, sql) -> PreparedStatement registry. The facts come from the
  // controller's parse cache (keyed by text alone), so preparing a text
  // another tenant already prepared — or re-registering it after the
  // catalog evicted this tenant — parses nothing. No RPC: the machines plan
  // the text through their plan cache when it first executes. Only SELECT
  // and DML can be prepared (DDL goes through ExecuteDdl; EXPLAIN is
  // rejected because its output is the plan, not data).
  Result<std::shared_ptr<PreparedStatement>> PrepareStatement(
      const std::string& db_name, const std::string& sql);

  // --- Failure handling & copy coordination (Algorithm 1) ---
  // These are the only writers of TenantRecord::copy (mtdblint rule
  // copy-state); ReplicaBuilder drives them.
  void FailMachine(int machine_id);
  // Claims db for one copy onto the alive `target_machine`: at most one copy
  // per tenant, of either kind. A move (`move`) replaces `source_machine`,
  // which must be a replica, on completion; otherwise the target joins the
  // replica list. No tables are copied yet.
  Status BeginCopy(const std::string& db_name, int target_machine,
                   int source_machine = -1, bool move = false);
  // Marks `table` as the one currently being copied (writes rejected). The
  // sentinel "*" marks database-granularity copying: all writes rejected.
  Status SetCopyInProgress(const std::string& db_name,
                           const std::string& table);
  // Moves `table` into the copied set (writes now go to m' too).
  Status MarkTableCopied(const std::string& db_name, const std::string& table);
  // Blocks until no routed-but-unfinished write targets the table ("*" = any
  // table of the database). Called by the replica builder after
  // SetCopyInProgress and before the dump takes its read lock: a write that
  // was routed before the copy window opened must reach the engines before
  // the snapshot, or the new replica would silently miss it.
  void WaitForQuiescentWrites(const std::string& db_name,
                              const std::string& table);
  // The cutover: new transactions on db back off
  // (TenantCatalog::AcquireForTxn) and no write is routed to the target
  // any more, so the tenant's pins can drain.
  Status FreezeCopy(const std::string& db_name);
  // Installs the target: a move puts it in the source's slot, so
  // primary_offset keeps naming the same logical replica; a recovery
  // appends it and prunes failed replicas. Pushes the stored quota to the
  // target and clears the copy state (unfreezing the tenant).
  Status CompleteCopy(const std::string& db_name);
  // Clears the copy state, placement untouched.
  Status AbandonCopy(const std::string& db_name);

  // --- Process-pair failover ---
  // Simulates the primary controller crashing and the backup taking over:
  // existing connections are invalidated, in-flight 2PC transactions are
  // resolved from the mirrored decision log (commit if decision logged,
  // abort otherwise). It does not wait for phase 2: resolving the
  // transactions whose phase 2 is still in flight is its job. The calls the
  // primary left in flight complete with kUnavailable and never count as a
  // missed deadline (MachineClient::AbandonArmedCalls).
  void SimulateControllerFailover();
  uint64_t epoch() const { return epoch_.load(); }

  // --- Introspection & experiment support ---
  int64_t rejected_writes(const std::string& db_name) const;
  int64_t total_rejected_writes() const;
  int64_t committed_transactions() const { return committed_.load(); }
  int64_t aborted_transactions() const { return aborted_.load(); }
  int64_t total_deadlocks() const;
  // Per-site committed histories, for the serializability checker. Waits
  // for every logged commit decision's phase 2 first, so each acknowledged
  // commit is in the histories of all its replicas.
  std::vector<std::vector<CommittedTxnRecord>> CollectHistories() const;
  // Audits the union of the per-site histories for a dependency cycle
  // (Bernstein et al.: with read-one-write-all, global one-copy
  // serializability == an acyclic global serialization graph).
  analysis::DsgReport CheckClusterSerializability() const;

  // Live per-database load feedback: every finished connection transaction
  // is reported here, and EstimateFor exposes measured ResourceVectors to
  // the rebalancer.
  obs::LoadMonitor* load_monitor() { return &load_monitor_; }

  // The sharded tenant catalog holding every per-tenant record (placement,
  // quota, prepared registrations) with LRU eviction of idle tenants'
  // resident state. Exposed for stats, benches, and tests.
  catalog::TenantCatalog* tenant_catalog() { return &catalog_; }
  const catalog::TenantCatalog* tenant_catalog() const { return &catalog_; }

  // --- QoS / admission control ---
  // Records `spec` as db_name's admission quota and pushes it to every alive
  // replica via kSetQuota. Copy targets receive the quota in CompleteCopy,
  // so the limit follows the database across machines.
  Status SetDatabaseQuota(const std::string& db_name,
                          const qos::QuotaSpec& spec);
  // Returns the stored quota (zero-valued spec when none configured).
  qos::QuotaSpec DatabaseQuota(const std::string& db_name) const;

  // Test hook: extra latency (us) applied per operation, keyed by the
  // connection label. `is_write` distinguishes read/write ops. Rides the
  // wire as RpcRequest::debug_delay_us so schedules are transport-agnostic.
  using LatencyInjector =
      std::function<int64_t(const std::string& label, bool is_write,
                            int machine_id)>;
  void SetLatencyInjector(LatencyInjector injector);

 private:
  friend class Connection;

  // Hot-standby mirror of controller state (the process pair's backup):
  // the commit decisions SimulateControllerFailover resolves 2PC with. A
  // decision stays until the last participant acks its COMMIT PREPARED.
  struct BackupImage {
    std::set<uint64_t> commit_decisions;
  };

  // Copy of the routing-relevant slice of a tenant's record, taken under
  // the catalog shard lock so the controller never nests the shard lock
  // with mu_ (machine-aliveness filtering happens under mu_ afterwards).
  struct RouteSnapshot {
    std::vector<int> replicas;
    int primary_offset = 0;
    bool copy_active = false;
    int copy_target = -1;
    bool copy_target_writable = false;  // target gets writes for this table
  };

  uint64_t NextTxnId() { return next_txn_id_.fetch_add(1); }
  // Replicas that are alive (machine not failed), under mu_.
  std::vector<int> AliveReplicasLocked(const std::vector<int>& replicas) const
      MTDB_REQUIRES(mu_);
  // Alive-filter without holding the catalog shard lock: snapshots the
  // record via the catalog, then filters under mu_.
  std::vector<int> AliveReplicas(const std::vector<int>& replicas) const;
  // Runs `fn` on db's record while a copy is active; FailedPrecondition
  // otherwise. `fn`'s status is returned.
  Status WithCopy(const std::string& db_name,
                  const std::function<Status(catalog::TenantRecord&)>& fn);
  // Write targets per Algorithm 1; returns kRejected for a table being
  // copied (and bumps the rejection counter).
  Result<std::vector<int>> WriteTargets(const std::string& db_name,
                                        const std::string& table);
  // Option-1 primary (first alive replica); Option 2/3 round-robin pick.
  Result<int> PickReadMachine(const std::string& db_name, int sticky);
  void LogCommitDecision(uint64_t txn_id);
  void ForgetCommitDecision(uint64_t txn_id);
  // Blocks until every logged decision is forgotten: phase 2 has settled.
  void SettleCommitDecisions() const;
  // In-flight replicated-write accounting (see WaitForQuiescentWrites).
  void BeginInflightWrite(const std::string& db_name,
                          const std::string& table);
  void EndInflightWrite(const std::string& db_name, const std::string& table);
  int64_t InjectedLatency(const std::string& label, bool is_write,
                          int machine_id) const;

  ClusterControllerOptions options_;

  // Owned transport when the options did not supply one. Declared before
  // the machines, so it outlives them: a machine's log thread may still
  // hand a late reply through it while the machine is destroyed.
  std::unique_ptr<net::InProcTransport> owned_transport_;
  net::Transport* transport_ = nullptr;

  mutable platform::Mutex mu_{"cluster/ClusterController::mu"};
  std::vector<std::unique_ptr<Machine>> machines_ MTDB_GUARDED_BY(mu_);
  // machines_.size(), published under mu_ for lock-free readers.
  std::atomic<size_t> machine_count_{0};
  // RPC endpoints for the local machines, registered with the transport
  // (no-op for remote transports: the server process hosts the service).
  std::vector<std::unique_ptr<net::MachineService>> services_
      MTDB_GUARDED_BY(mu_);
  // Incrementally maintained replica count per machine, so least-loaded
  // placement is O(machines log machines) per create instead of scanning
  // every tenant's replica list (O(tenants) — ruinous at 100k creates).
  std::vector<int64_t> machine_replica_load_ MTDB_GUARDED_BY(mu_);
  // Round-robin counter per distinct replica set, for primary_offset
  // assignment (bounded by the number of distinct replica sets, not by
  // tenant count).
  std::map<std::vector<int>, uint64_t> replica_set_rr_ MTDB_GUARDED_BY(mu_);
  BackupImage backup_ MTDB_GUARDED_BY(mu_);
  // Signalled when a decision is forgotten (SettleCommitDecisions).
  mutable platform::CondVar decisions_cv_;

  std::atomic<uint64_t> next_txn_id_{1};
  std::atomic<uint64_t> epoch_{1};
  std::atomic<uint64_t> round_robin_{0};
  std::atomic<int64_t> committed_{0};
  std::atomic<int64_t> aborted_{0};

  mutable platform::Mutex injector_mu_{"cluster/ClusterController::injector_mu"};
  LatencyInjector latency_injector_ MTDB_GUARDED_BY(injector_mu_);
  // Whether latency_injector_ is set; written under injector_mu_, read
  // without it so a cluster with no injector pays no lock per operation.
  std::atomic<bool> injector_installed_{false};

  obs::LoadMonitor load_monitor_;
  obs::Counter* m_failover_ = nullptr;
  // Transaction series every Connection records into: process-wide totals,
  // resolved once here. Per-tenant load is load_monitor_'s job.
  obs::Counter* m_txn_commit_ = nullptr;
  obs::Counter* m_txn_abort_ = nullptr;
  obs::Counter* m_read_retry_ = nullptr;
  obs::Counter* m_backoff_ = nullptr;
  Histogram* m_backoff_wait_us_ = nullptr;
  Histogram* m_txn_latency_us_ = nullptr;
  Histogram* m_2pc_prepare_us_ = nullptr;
  Histogram* m_2pc_commit_us_ = nullptr;
  // Logged decisions that still await participant acks.
  obs::Gauge* m_2pc_pending_ = nullptr;

  // The sharded tenant catalog: durable records (placement, quota, copy
  // state) plus evictable resident state (prepared registrations). Has its
  // own shard locks; the controller never holds mu_ while calling into it
  // (and the catalog never calls the controller), so the two lock layers
  // cannot order-invert.
  catalog::TenantCatalog catalog_;

  // Parses for routing (PrepareStatement, Connection::Execute), shared by
  // every tenant that sends the same text.
  sql::StatementCache statements_;

  mutable platform::Mutex inflight_mu_{"cluster/ClusterController::inflight_mu"};
  platform::CondVar inflight_cv_;
  // Keys: "<db>" (all tables) and "<db>/<table>". Entries are erased when
  // their count drops to zero, so the map tracks only writes in flight.
  // mtdblint: allow(tenant-map)
  std::map<std::string, int64_t> inflight_writes_ MTDB_GUARDED_BY(inflight_mu_);

  // Declared last: destroyed first, so the deadline watchdog and all control
  // channels wind down while machines and services are still alive.
  std::unique_ptr<net::MachineClient> client_;
};

}  // namespace mtdb

#endif  // MTDB_CLUSTER_CLUSTER_CONTROLLER_H_
