#include "src/cluster/replica_builder.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/cluster/cluster_controller.h"
#include "src/cluster/machine.h"
#include "src/common/clock.h"
#include "src/net/machine_client.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/platform/mutex.h"

namespace mtdb {

namespace {

// Dump transactions take ids far above any client transaction id, from one
// process-wide sequence, so no two dumps share an id whichever builder or
// controller runs them.
constexpr uint64_t kDumpTxnBase = 1ull << 48;
std::atomic<uint64_t> dump_txn_seq{0};

uint64_t NextDumpTxn() { return kDumpTxnBase + dump_txn_seq.fetch_add(1); }

// How long a freeze may wait for in-flight transactions to finish. Pins are
// bounded by the begin-throttle budget, so this comfortably covers a full
// transaction.
constexpr int64_t kDrainTimeoutUs = 5'000'000;
constexpr int64_t kDrainPollUs = 200;
// Delta catch-up stops when a round ships at most this many records (the
// remaining tail is shipped inside the freeze) or after this many rounds.
constexpr size_t kDeltaSettleRecords = 8;
constexpr int kDeltaMaxRounds = 16;

struct Metrics {
  Histogram* recovery_copy_us;
  obs::Counter* started;
  obs::Counter* completed;
  obs::Counter* aborted;
  obs::Counter* bytes_copied;
  obs::Counter* delta_rounds;
  Histogram* cutover_pause_us;
};

Metrics& GlobalMetrics() {
  static Metrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    Metrics m;
    m.recovery_copy_us = registry.GetHistogram("mtdb_recovery_copy_us", {});
    m.started = registry.GetCounter("mtdb_rebalance_migrations_started_total",
                                    {});
    m.completed = registry.GetCounter(
        "mtdb_rebalance_migrations_completed_total", {});
    m.aborted = registry.GetCounter("mtdb_rebalance_migrations_aborted_total",
                                    {});
    m.bytes_copied = registry.GetCounter("mtdb_rebalance_bytes_copied_total",
                                         {});
    m.delta_rounds = registry.GetCounter("mtdb_rebalance_delta_rounds_total",
                                         {});
    m.cutover_pause_us =
        registry.GetHistogram("mtdb_rebalance_cutover_pause_us", {});
    return m;
  }();
  return metrics;
}

void RecordPhaseSpan(uint64_t trace_id, int machine_id,
                     const std::string& phase, int64_t start_us) {
  obs::TraceSpan span;
  span.trace_id = trace_id;
  span.machine_id = machine_id;
  span.operation = "migrate:" + phase;
  span.start_us = start_us;
  span.client_duration_us = NowMicros() - start_us;
  obs::TraceCollector::Global().RecordSpan(span);
}

}  // namespace

void RegisterReplicaMetrics() { (void)GlobalMetrics(); }

ReplicaBuilder::ReplicaBuilder(ClusterController* controller,
                               ReplicaBuilderOptions options)
    : controller_(controller), options_(options) {
  RegisterReplicaMetrics();
}

Result<int> ReplicaBuilder::ChooseTarget(const std::string& db_name) {
  std::vector<int> replicas = controller_->ReplicasOf(db_name);
  net::MachineClient* client = controller_->machine_client();
  for (int id : controller_->MachineIds()) {
    Machine* m = controller_->machine(id);
    if (m == nullptr || m->failed()) continue;
    if (std::count(replicas.begin(), replicas.end(), id) > 0) continue;
    // The machine must not already hold a stale copy of this database. Only
    // a definite "not found" answer makes it usable: an unreachable machine
    // is no recovery target either.
    if (client->HasDatabase(id, db_name).code() != StatusCode::kNotFound) {
      continue;
    }
    return id;
  }
  return Status::ResourceExhausted("no machine available to host " + db_name);
}

std::vector<RecoveryResult> ReplicaBuilder::RecoverAll(int target_replicas) {
  // Work list: databases with fewer than target_replicas alive replicas.
  std::vector<std::string> to_recover;
  for (const std::string& db_name : controller_->DatabaseNames()) {
    int alive = 0;
    for (int id : controller_->ReplicasOf(db_name)) {
      Machine* m = controller_->machine(id);
      if (m != nullptr && !m->failed()) ++alive;
    }
    if (alive < target_replicas && alive > 0) to_recover.push_back(db_name);
  }

  std::vector<RecoveryResult> results(to_recover.size());
  std::atomic<size_t> next{0};
  // Serializes target selection to avoid collisions.
  platform::Mutex target_mu{"cluster/Recovery::target_mu"};
  auto worker = [&] {
    while (true) {
      size_t i = next.fetch_add(1);
      if (i >= to_recover.size()) return;
      const std::string& db_name = to_recover[i];
      int target = -1;
      {
        platform::Guard lock(target_mu);
        auto target_or = ChooseTarget(db_name);
        if (!target_or.ok()) {
          results[i].database = db_name;
          results[i].status = target_or.status();
          continue;
        }
        target = *target_or;
      }
      results[i] = RecoverDatabase(db_name, target);
    }
  };
  int threads = std::max(1, options_.recovery_threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return results;
}

RecoveryResult ReplicaBuilder::RecoverDatabase(const std::string& db_name,
                                               int target_machine) {
  RecoveryResult result;
  result.database = db_name;
  result.target_machine = target_machine;
  Stopwatch watch;
  // Source: any alive current replica.
  for (int id : controller_->ReplicasOf(db_name)) {
    Machine* m = controller_->machine(id);
    if (m != nullptr && !m->failed()) {
      result.source_machine = id;
      break;
    }
  }
  if (result.source_machine < 0) {
    result.status = Status::Unavailable("no alive replica of " + db_name);
    return result;
  }
  Copy copy(db_name, result.source_machine, target_machine, /*move=*/false);
  result.status = Build(copy);
  result.duration_us = watch.ElapsedMicros();
  obs::Observe(GlobalMetrics().recovery_copy_us, result.duration_us);
  return result;
}

Status ReplicaBuilder::Migrate(const rebalance::MigrationPlan& plan) {
  Metrics& metrics = GlobalMetrics();
  obs::Increment(metrics.started);
  Copy copy(plan.database, plan.source_machine, plan.target_machine,
            /*move=*/true);
  Status status = Build(copy);
  if (!status.ok()) {
    obs::Increment(metrics.aborted);
    return status;
  }
  obs::Observe(metrics.cutover_pause_us, NowMicros() - copy.frozen_us);
  RecordPhaseSpan(copy.trace_id, plan.target_machine, "cutover",
                  copy.frozen_us);
  obs::TraceCollector::Global().FinishTrace(copy.trace_id,
                                            /*committed=*/true);
  obs::Increment(metrics.completed);
  // Cleanup is best-effort: the target already holds the source's slot, so
  // the source copy is just garbage now.
  (void)controller_->machine_client()->DropDatabase(plan.source_machine,
                                                    plan.database);
  return Status::OK();
}

Status ReplicaBuilder::Build(Copy& copy) {
  MTDB_RETURN_IF_ERROR(controller_->BeginCopy(copy.db, copy.target,
                                              copy.source, copy.move));
  if (copy.move) copy.trace_id = obs::TraceCollector::Global().StartTrace(0);
  copy.per_row_delay_us =
      options_.per_row_delay_us * (active_copies_.fetch_add(1) + 1);
  Status status = copy.move ? CopyOnline(copy) : CopyTables(copy);
  active_copies_.fetch_sub(1);
  if (status.ok()) status = controller_->CompleteCopy(copy.db);
  return status.ok() ? status : Abort(copy, status);
}

Status ReplicaBuilder::CopyTables(const Copy& copy) {
  // The copy tool is a cluster-controller client like any other: it reaches
  // both source and target exclusively through machine RPCs (the paper's
  // "off-the-shelf copy tool" run against the DBMS interface).
  net::MachineClient* client = controller_->machine_client();
  // The database exists on the target before any table does, so a tenant
  // without tables is copied too.
  MTDB_RETURN_IF_ERROR(client->CreateDatabase(copy.target, copy.db));
  const bool gated = !copy.move;
  if (gated && options_.granularity == CopyGranularity::kDatabase) {
    // Every write to the database is rejected for the whole copy; the dump
    // keeps its read lock on every table. No write reaches the target
    // before CompleteCopy ends the "*" window, so no table is marked copied.
    MTDB_RETURN_IF_ERROR(controller_->SetCopyInProgress(copy.db, "*"));
    controller_->WaitForQuiescentWrites(copy.db, "*");
    MTDB_ASSIGN_OR_RETURN(std::vector<std::string> records,
                          client->DumpDatabase(copy.source, copy.db,
                                               NextDumpTxn(),
                                               copy.per_row_delay_us));
    return Install(copy, records);
  }
  MTDB_ASSIGN_OR_RETURN(std::vector<std::string> tables,
                        client->ListTables(copy.source, copy.db));
  for (const std::string& table : tables) {
    if (gated) {
      // Algorithm 1: writes to `table` are rejected until it is installed
      // on the target and marked copied. Writes routed before the window
      // opened must reach the engines before the snapshot, or the new
      // replica would miss them.
      MTDB_RETURN_IF_ERROR(controller_->SetCopyInProgress(copy.db, table));
      controller_->WaitForQuiescentWrites(copy.db, table);
    }
    MTDB_ASSIGN_OR_RETURN(std::vector<std::string> records,
                          client->DumpTable(copy.source, copy.db, table,
                                            NextDumpTxn(),
                                            copy.per_row_delay_us));
    MTDB_RETURN_IF_ERROR(Install(copy, records));
    // Algorithm 1: from here on the table's writes reach the target too.
    if (gated) {
      MTDB_RETURN_IF_ERROR(controller_->MarkTableCopied(copy.db, table));
    }
  }
  return Status::OK();
}

Status ReplicaBuilder::CopyOnline(Copy& copy) {
  // Capability probe: UINT64_MAX returns the source's WAL frontier without
  // shipping records. Everything committed before it is covered by the dump
  // too, and replaying the overlap is idempotent (upserts), so starting the
  // delta from here can lose nothing.
  uint64_t cursor = 0;
  auto probe = controller_->machine_client()->WalDeltaRead(
      copy.source, copy.db, UINT64_MAX, &cursor);
  if (!probe.ok()) {
    if (probe.status().code() != StatusCode::kFailedPrecondition) {
      return probe.status();
    }
    // No WAL on the source, so no delta to tail: freeze first, then copy a
    // quiet tenant. Same protocol, longer pause.
    MTDB_RETURN_IF_ERROR(FreezeAndDrain(copy));
    return CopyTables(copy);
  }
  int64_t phase_start_us = NowMicros();
  MTDB_RETURN_IF_ERROR(CopyTables(copy));
  RecordPhaseSpan(copy.trace_id, copy.source, "bulk_copy", phase_start_us);
  // Delta catch-up: ship the committed suffix until a round comes back
  // small. The source serves normally the whole time.
  phase_start_us = NowMicros();
  for (int round = 0; round < kDeltaMaxRounds; ++round) {
    MTDB_ASSIGN_OR_RETURN(size_t shipped, ShipDelta(copy, &cursor));
    if (shipped <= kDeltaSettleRecords) break;
  }
  RecordPhaseSpan(copy.trace_id, copy.source, "delta_catchup",
                  phase_start_us);
  // Cutover: the only client-visible window. Begins back off, in-flight
  // transactions drain, and the final delta ships before completion.
  MTDB_RETURN_IF_ERROR(FreezeAndDrain(copy));
  return ShipDelta(copy, &cursor).status();
}

Result<size_t> ReplicaBuilder::ShipDelta(const Copy& copy, uint64_t* cursor) {
  uint64_t frontier = 0;
  MTDB_ASSIGN_OR_RETURN(std::vector<std::string> records,
                        controller_->machine_client()->WalDeltaRead(
                            copy.source, copy.db, *cursor, &frontier));
  obs::Increment(GlobalMetrics().delta_rounds);
  if (!records.empty()) MTDB_RETURN_IF_ERROR(Install(copy, records));
  *cursor = frontier;
  return records.size();
}

Status ReplicaBuilder::Install(const Copy& copy,
                               const std::vector<std::string>& records) {
  if (copy.move) {
    int64_t bytes = 0;
    for (const std::string& record : records) {
      bytes += static_cast<int64_t>(record.size());
    }
    obs::Increment(GlobalMetrics().bytes_copied, bytes);
  }
  return controller_->machine_client()->ApplyRecords(copy.target, copy.db,
                                                     records);
}

Status ReplicaBuilder::FreezeAndDrain(Copy& copy) {
  MTDB_RETURN_IF_ERROR(controller_->FreezeCopy(copy.db));
  copy.frozen_us = NowMicros();
  // New begins are now refused (they back off and retry); wait out the
  // transactions that pinned the tenant before the freeze, and their writes:
  // on abort paths a write may still be in flight past its pin's release.
  // Once no pin is left no write can start, so one pass sees both at rest.
  int64_t deadline_us = copy.frozen_us + kDrainTimeoutUs;
  while (controller_->tenant_catalog()->PinCount(copy.db) > 0 ||
         controller_->WritesInFlight(copy.db, "*") > 0) {
    if (NowMicros() > deadline_us) {
      return Status::Aborted("drain timed out for " + copy.db);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(kDrainPollUs));
  }
  return Status::OK();
}

Status ReplicaBuilder::Abort(Copy& copy, const Status& cause) {
  obs::TraceCollector::Global().FinishTrace(copy.trace_id,
                                            /*committed=*/false);
  // Client writes reach the target only for tables marked copied. When any
  // are, the tenant's transactions must drain before the drop, because
  // Engine::DropDatabase frees the database under any transaction still
  // using it. A drain that times out leaves the partial copy in place.
  bool target_written = false;
  (void)controller_->tenant_catalog()->With(
      copy.db, [&](const catalog::TenantRecord& record) {
        target_written = !record.copy.copied_tables.empty();
      });
  bool drop = !target_written || FreezeAndDrain(copy).ok();
  // Clearing the state unfreezes the tenant and ends the claim; placement
  // was never touched, so this IS the rollback.
  (void)controller_->AbandonCopy(copy.db);
  if (drop) {
    (void)controller_->machine_client()->DropDatabase(copy.target, copy.db);
  }
  return cause;
}

}  // namespace mtdb
