#include "src/cluster/recovery.h"

#include <algorithm>
#include <thread>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/net/machine_client.h"
#include "src/obs/metrics.h"
#include "src/platform/mutex.h"

namespace mtdb {

namespace {
// Dump transactions get ids far away from client transaction ids.
constexpr uint64_t kDumpTxnBase = 1ull << 48;
}  // namespace

Result<int> RecoveryManager::ChooseTarget(const std::string& db_name) {
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

RecoveryResult RecoveryManager::RecoverDatabase(const std::string& db_name,
                                                int target_machine) {
  RecoveryResult result;
  result.database = db_name;
  result.target_machine = target_machine;
  Stopwatch watch;

  // Source: any alive current replica.
  int source = -1;
  for (int id : controller_->ReplicasOf(db_name)) {
    Machine* m = controller_->machine(id);
    if (m != nullptr && !m->failed()) {
      source = id;
      break;
    }
  }
  if (source < 0) {
    result.status = Status::Unavailable("no alive replica of " + db_name);
    return result;
  }
  result.source_machine = source;

  result.status = options_.granularity == CopyGranularity::kTable
                      ? CopyTableGranularity(db_name, source, target_machine)
                            .status
                      : CopyDatabaseGranularity(db_name, source,
                                                target_machine)
                            .status;
  result.duration_us = watch.ElapsedMicros();
  obs::Observe(obs::MetricsRegistry::Global().GetHistogram(
                   "mtdb_recovery_copy_us", {}),
               result.duration_us);
  return result;
}

RecoveryResult RecoveryManager::CopyTableGranularity(const std::string& db_name,
                                                     int source_machine,
                                                     int target_machine) {
  RecoveryResult result;
  result.database = db_name;
  result.source_machine = source_machine;
  result.target_machine = target_machine;

  // The copy tool is a cluster-controller client like any other: it reaches
  // both source and target exclusively through machine RPCs (the paper's
  // "off-the-shelf copy tool" run against the DBMS interface).
  net::MachineClient* client = controller_->machine_client();

  Status status = controller_->BeginCopy(db_name, target_machine);
  if (!status.ok()) {
    result.status = status;
    return result;
  }
  auto tables_or = client->ListTables(source_machine, db_name);
  if (!tables_or.ok()) {
    (void)controller_->AbandonCopy(db_name);
    result.status = tables_or.status();
    return result;
  }
  active_copies_.fetch_add(1);
  int64_t per_row_delay_us = EffectivePerRowDelay();
  for (const std::string& table : *tables_or) {
    // Algorithm 1: writes to `table` are rejected from this point until the
    // table is installed on the target and marked copied.
    status = controller_->SetCopyInProgress(db_name, table);
    if (!status.ok()) break;
    // Writes routed before the copy window opened must reach the engines
    // before the snapshot; otherwise the new replica would miss them.
    controller_->WaitForQuiescentWrites(db_name, table);
    auto dump = client->DumpTable(source_machine, db_name, table,
                                  kDumpTxnBase + dump_txn_seq_.fetch_add(1),
                                  per_row_delay_us);
    if (!dump.ok()) {
      status = dump.status();
      break;
    }
    // ApplyDump creates the database on the target on first use.
    status = client->ApplyDump(target_machine, db_name, *dump);
    if (!status.ok()) break;
    status = controller_->MarkTableCopied(db_name, table);
    if (!status.ok()) break;
  }
  active_copies_.fetch_sub(1);
  if (status.ok()) {
    status = controller_->CompleteCopy(db_name);
  } else {
    (void)controller_->AbandonCopy(db_name);
  }
  result.status = status;
  return result;
}

RecoveryResult RecoveryManager::CopyDatabaseGranularity(
    const std::string& db_name, int source_machine, int target_machine) {
  RecoveryResult result;
  result.database = db_name;
  result.source_machine = source_machine;
  result.target_machine = target_machine;

  net::MachineClient* client = controller_->machine_client();

  Status status = controller_->BeginCopy(db_name, target_machine);
  if (!status.ok()) {
    result.status = status;
    return result;
  }
  // Database-granularity copying: every write to the database is rejected
  // for the duration of the copy.
  status = controller_->SetCopyInProgress(db_name, "*");
  if (status.ok()) controller_->WaitForQuiescentWrites(db_name, "*");
  active_copies_.fetch_add(1);
  if (status.ok()) {
    auto dump = client->DumpDatabase(source_machine, db_name,
                                     kDumpTxnBase + dump_txn_seq_.fetch_add(1),
                                     EffectivePerRowDelay());
    status = dump.status();
    if (status.ok()) {
      for (const TableDump& table : *dump) {
        status = client->ApplyDump(target_machine, db_name, table);
        if (!status.ok()) break;
        status = controller_->MarkTableCopied(db_name, table.schema.name());
        if (!status.ok()) break;
      }
    }
  }
  active_copies_.fetch_sub(1);
  if (status.ok()) {
    status = controller_->CompleteCopy(db_name);
  } else {
    (void)controller_->AbandonCopy(db_name);
  }
  result.status = status;
  return result;
}

std::vector<RecoveryResult> RecoveryManager::RecoverAll(int target_replicas) {
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

}  // namespace mtdb
