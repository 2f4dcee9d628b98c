#include "src/cluster/rebalance/tenant_migrator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "src/cluster/cluster_controller.h"
#include "src/cluster/machine.h"
#include "src/common/clock.h"
#include "src/net/machine_client.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/storage/wal/wal.h"

namespace mtdb::rebalance {

namespace {

// Dump transactions need ids no client or recovery dump will ever mint:
// recovery uses 1<<48 + seq, so migrations take the next disjoint block.
constexpr uint64_t kMigrateDumpTxnBase = (1ull << 48) + (1ull << 47);
std::atomic<uint64_t> migrate_dump_seq{0};

// How long the cutover may wait for in-flight transactions to finish before
// the migration aborts. Pins are bounded by the begin-throttle budget, so
// this comfortably covers a full transaction.
constexpr int64_t kDrainTimeoutUs = 5'000'000;
constexpr int64_t kDrainPollUs = 200;
// Delta catch-up stops when a round ships at most this many lines (the
// remaining tail is shipped inside the cutover) or after this many rounds.
constexpr size_t kDeltaSettleLines = 8;
constexpr int kDeltaMaxRounds = 16;

struct Metrics {
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
    m.cutover_pause_us = registry.GetHistogram("mtdb_rebalance_cutover_pause_us",
                                               {});
    return m;
  }();
  return metrics;
}

int64_t DumpBytes(const TableDump& dump) {
  int64_t bytes = 0;
  for (const auto& [row, version] : dump.rows) {
    (void)version;
    for (const Value& value : row) {
      bytes += static_cast<int64_t>(WriteAheadLog::EncodeValue(value).size());
    }
  }
  return bytes;
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

void RegisterRebalanceMetrics() { (void)GlobalMetrics(); }

TenantMigrator::TenantMigrator(ClusterController* controller,
                               MigratorOptions options)
    : controller_(controller), options_(options) {
  RegisterRebalanceMetrics();
}

Status TenantMigrator::Migrate(const MigrationPlan& plan) {
  obs::Increment(GlobalMetrics().started);
  // Validate and claim in one catalog critical section: at most one
  // migration per tenant, never concurrent with a recovery copy, and only
  // between machines that actually make sense for the current placement.
  Status claim = Status::OK();
  Status found = controller_->tenant_catalog()->With(
      plan.database, [&](catalog::TenantRecord& record) {
        if (record.migration.active()) {
          claim = Status::FailedPrecondition("migration already active for " +
                                             plan.database);
          return;
        }
        if (record.copy.active) {
          claim = Status::FailedPrecondition("recovery copy active for " +
                                             plan.database);
          return;
        }
        if (std::find(record.replicas.begin(), record.replicas.end(),
                      plan.source_machine) == record.replicas.end()) {
          claim = Status::FailedPrecondition(
              plan.database + " has no replica on machine " +
              std::to_string(plan.source_machine));
          return;
        }
        if (std::find(record.replicas.begin(), record.replicas.end(),
                      plan.target_machine) != record.replicas.end()) {
          claim = Status::FailedPrecondition(
              plan.database + " already placed on machine " +
              std::to_string(plan.target_machine));
          return;
        }
        record.migration.phase = MigrationPhase::kBulkCopy;
        record.migration.source_machine = plan.source_machine;
        record.migration.target_machine = plan.target_machine;
        record.migration.wal_cursor = 0;
        record.migration.started_us = NowMicros();
      });
  if (found.ok() && claim.ok()) {
    Machine* target = controller_->machine(plan.target_machine);
    if (target == nullptr || target->failed()) {
      claim = Status::FailedPrecondition("migration target not alive");
    }
  }
  if (!found.ok() || !claim.ok()) {
    // Nothing claimed (or claim failed validation): no partial state beyond
    // the possibly-set phase to roll back.
    if (found.ok() && !claim.ok()) ClearMigrationState(plan.database);
    obs::Increment(GlobalMetrics().aborted);
    return found.ok() ? claim : found;
  }

  // Capability probe: can the source serve WAL deltas? UINT64_MAX returns
  // the current frontier without shipping lines. A WAL-less source answers
  // kFailedPrecondition and the migration falls back to the frozen copy.
  uint64_t frontier = 0;
  auto probe = controller_->machine_client()->WalDeltaRead(
      plan.source_machine, plan.database, UINT64_MAX, &frontier);
  if (probe.ok()) {
    // The pre-dump frontier: everything committed before it is covered by
    // the dump too, and replaying the overlap is idempotent (upserts), so
    // starting the delta from here can lose nothing.
    return MigrateLive(plan, frontier);
  }
  if (probe.status().code() == StatusCode::kFailedPrecondition) {
    return MigrateFrozen(plan);
  }
  return Abort(plan, probe.status());
}

Status TenantMigrator::CopyTables(const MigrationPlan& plan) {
  net::MachineClient* client = controller_->machine_client();
  Status created = client->CreateDatabase(plan.target_machine, plan.database);
  if (!created.ok()) return created;
  auto tables = client->ListTables(plan.source_machine, plan.database);
  if (!tables.ok()) return tables.status();
  for (const std::string& table : *tables) {
    uint64_t dump_txn =
        kMigrateDumpTxnBase + migrate_dump_seq.fetch_add(1);
    auto dump = client->DumpTable(plan.source_machine, plan.database, table,
                                  dump_txn, options_.per_row_delay_us);
    if (!dump.ok()) return dump.status();
    obs::Increment(GlobalMetrics().bytes_copied, DumpBytes(*dump));
    Status applied = client->ApplyDump(plan.target_machine, plan.database,
                                       *dump);
    if (!applied.ok()) return applied;
  }
  return Status::OK();
}

Status TenantMigrator::FreezeAndDrain(const std::string& database) {
  Status frozen = controller_->tenant_catalog()->With(
      database, [](catalog::TenantRecord& record) {
        record.migration.phase = MigrationPhase::kCutover;
      });
  if (!frozen.ok()) return frozen;
  // New begins are now refused (they back off and retry); wait out the
  // transactions that pinned the tenant before the freeze.
  int64_t deadline_us = NowMicros() + kDrainTimeoutUs;
  while (controller_->tenant_catalog()->PinCount(database) > 0) {
    if (NowMicros() > deadline_us) {
      return Status::Aborted("cutover drain timed out for " + database);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(kDrainPollUs));
  }
  // Writes routed before the freeze may still be in flight past their pin
  // release on abort paths; the recovery machinery's quiescence barrier
  // covers them.
  controller_->WaitForQuiescentWrites(database, "*");
  return Status::OK();
}

Status TenantMigrator::MigrateLive(const MigrationPlan& plan,
                                   uint64_t wal_cursor) {
  net::MachineClient* client = controller_->machine_client();
  uint64_t trace_id = obs::TraceCollector::Global().StartTrace(0);
  int64_t phase_start_us = NowMicros();

  Status copied = CopyTables(plan);
  if (!copied.ok()) return Abort(plan, copied, trace_id);
  RecordPhaseSpan(trace_id, plan.source_machine, "bulk_copy", phase_start_us);

  // Delta catch-up: ship the committed suffix until a round comes back
  // small. The source serves normally the whole time.
  Status advanced = controller_->tenant_catalog()->With(
      plan.database, [&](catalog::TenantRecord& record) {
        record.migration.phase = MigrationPhase::kDeltaCatchup;
        record.migration.wal_cursor = wal_cursor;
      });
  if (!advanced.ok()) return Abort(plan, advanced, trace_id);
  phase_start_us = NowMicros();
  for (int round = 0; round < kDeltaMaxRounds; ++round) {
    uint64_t frontier = 0;
    auto lines = client->WalDeltaRead(plan.source_machine, plan.database,
                                      wal_cursor, &frontier);
    if (!lines.ok()) return Abort(plan, lines.status(), trace_id);
    obs::Increment(GlobalMetrics().delta_rounds);
    if (!lines->empty()) {
      int64_t bytes = 0;
      for (const std::string& line : *lines) {
        bytes += static_cast<int64_t>(line.size());
      }
      obs::Increment(GlobalMetrics().bytes_copied, bytes);
      Status applied = client->WalDeltaApply(plan.target_machine,
                                             plan.database, *lines);
      if (!applied.ok()) return Abort(plan, applied, trace_id);
    }
    wal_cursor = frontier;
    Status cursored = controller_->tenant_catalog()->With(
        plan.database, [&](catalog::TenantRecord& record) {
          record.migration.wal_cursor = wal_cursor;
        });
    if (!cursored.ok()) return Abort(plan, cursored, trace_id);
    if (lines->size() <= kDeltaSettleLines) break;
  }
  RecordPhaseSpan(trace_id, plan.source_machine, "delta_catchup",
                  phase_start_us);

  // Cutover: the only client-visible window. Begins back off, in-flight
  // transactions drain, the final delta ships, the replica list swaps.
  int64_t cutover_start_us = NowMicros();
  Status drained = FreezeAndDrain(plan.database);
  if (!drained.ok()) return Abort(plan, drained, trace_id);
  uint64_t frontier = 0;
  auto final_lines = client->WalDeltaRead(plan.source_machine, plan.database,
                                          wal_cursor, &frontier);
  if (!final_lines.ok()) return Abort(plan, final_lines.status(), trace_id);
  if (!final_lines->empty()) {
    Status applied = client->WalDeltaApply(plan.target_machine, plan.database,
                                           *final_lines);
    if (!applied.ok()) return Abort(plan, applied, trace_id);
  }
  Status swapped = controller_->SwapReplica(plan.database, plan.source_machine,
                                            plan.target_machine);
  if (!swapped.ok()) return Abort(plan, swapped, trace_id);
  ClearMigrationState(plan.database);
  obs::Observe(GlobalMetrics().cutover_pause_us,
               NowMicros() - cutover_start_us);
  RecordPhaseSpan(trace_id, plan.target_machine, "cutover", cutover_start_us);
  obs::TraceCollector::Global().FinishTrace(trace_id, /*committed=*/true);
  obs::Increment(GlobalMetrics().completed);

  // Cleanup is best-effort: the swap already happened, the source copy is
  // just garbage now.
  (void)client->DropDatabase(plan.source_machine, plan.database);
  if (Machine* source = controller_->machine(plan.source_machine)) {
    source->EvictTenant(plan.database);
  }
  return Status::OK();
}

Status TenantMigrator::MigrateFrozen(const MigrationPlan& plan) {
  // No WAL on the source, so there is no delta to tail: freeze FIRST, then
  // copy a quiescent tenant. Same protocol, longer pause.
  net::MachineClient* client = controller_->machine_client();
  uint64_t trace_id = obs::TraceCollector::Global().StartTrace(0);
  int64_t cutover_start_us = NowMicros();
  Status drained = FreezeAndDrain(plan.database);
  if (!drained.ok()) return Abort(plan, drained, trace_id);
  Status copied = CopyTables(plan);
  if (!copied.ok()) return Abort(plan, copied, trace_id);
  Status swapped = controller_->SwapReplica(plan.database, plan.source_machine,
                                            plan.target_machine);
  if (!swapped.ok()) return Abort(plan, swapped, trace_id);
  ClearMigrationState(plan.database);
  obs::Observe(GlobalMetrics().cutover_pause_us,
               NowMicros() - cutover_start_us);
  RecordPhaseSpan(trace_id, plan.target_machine, "frozen_copy",
                  cutover_start_us);
  obs::TraceCollector::Global().FinishTrace(trace_id, /*committed=*/true);
  obs::Increment(GlobalMetrics().completed);
  (void)client->DropDatabase(plan.source_machine, plan.database);
  if (Machine* source = controller_->machine(plan.source_machine)) {
    source->EvictTenant(plan.database);
  }
  return Status::OK();
}

void TenantMigrator::ClearMigrationState(const std::string& database) {
  (void)controller_->tenant_catalog()->With(
      database, [](catalog::TenantRecord& record) {
        record.migration = MigrationState{};
      });
}

Status TenantMigrator::Abort(const MigrationPlan& plan, const Status& cause,
                             uint64_t trace_id) {
  if (trace_id != 0) {
    obs::TraceCollector::Global().FinishTrace(trace_id, /*committed=*/false);
  }
  // Unfreeze first: whatever went wrong, the tenant must resume on the
  // source immediately. Placement was never touched before SwapReplica, so
  // clearing the migration state IS the rollback.
  ClearMigrationState(plan.database);
  (void)controller_->machine_client()->DropDatabase(plan.target_machine,
                                                    plan.database);
  if (Machine* target = controller_->machine(plan.target_machine)) {
    target->EvictTenant(plan.database);
  }
  obs::Increment(GlobalMetrics().aborted);
  return cause;
}

}  // namespace mtdb::rebalance
