#include "src/workload/driver.h"

#include <thread>

#include "src/common/clock.h"

namespace mtdb::workload {

void WorkloadStats::Merge(const WorkloadStats& other) {
  committed += other.committed;
  aborted += other.aborted;
  deadlock_aborts += other.deadlock_aborts;
  timeout_aborts += other.timeout_aborts;
  read_lock_aborts += other.read_lock_aborts;
  rejected += other.rejected;
  unavailable += other.unavailable;
  write_committed += other.write_committed;
  elapsed_seconds = std::max(elapsed_seconds, other.elapsed_seconds);
  latency_us.Merge(other.latency_us);
}

namespace {

// Counts a failed transaction by cause. Returns whether it was a lock victim
// (a deadlock or a lock-wait timeout).
bool ClassifyFailure(const Status& status, WorkloadStats* stats) {
  stats->aborted++;
  // Poisoned transactions surface as kAborted with the root cause in the
  // message; match on both the raw and wrapped forms.
  const std::string& message = status.message();
  auto contains = [&message](const char* needle) {
    return message.find(needle) != std::string::npos;
  };
  if (status.code() == StatusCode::kDeadlock || contains("Deadlock")) {
    stats->deadlock_aborts++;
    return true;
  }
  if (status.code() == StatusCode::kLockTimeout || contains("LockTimeout")) {
    stats->timeout_aborts++;
    return true;
  }
  if (status.code() == StatusCode::kRejected || contains("Rejected")) {
    stats->rejected++;
    return false;
  }
  if (status.code() == StatusCode::kUnavailable || contains("Unavailable")) {
    stats->unavailable++;
  }
  return false;
}

WorkloadStats RunSession(ClusterController* controller,
                         const std::string& db_name, const TpcwScale& scale,
                         const DriverOptions& options, uint64_t session_seed) {
  WorkloadStats stats;
  Random rng(session_seed);
  auto conn = controller->Connect(db_name);
  // Prepare the fixed statement set once per session; every interaction then
  // skips the controller's routing parse.
  auto stmts_or = PrepareTpcwStatements(conn.get());
  if (!stmts_or.ok()) {
    (void)ClassifyFailure(stmts_or.status(), &stats);
    return stats;
  }
  const TpcwStatements& stmts = *stmts_or;
  Stopwatch watch;
  while (watch.ElapsedMicros() < options.duration_ms * 1000) {
    Interaction interaction = DrawInteraction(options.mix, &rng);
    Stopwatch txn_watch;
    InteractionResult result = RunInteraction(
        conn.get(), stmts, interaction, scale, &rng, options.snapshot_reads);
    if (result.status.ok()) {
      stats.committed++;
      if (result.was_write) stats.write_committed++;
      stats.latency_us.Record(txn_watch.ElapsedMicros());
    } else if (ClassifyFailure(result.status, &stats) && !result.was_write) {
      stats.read_lock_aborts++;
    }
  }
  stats.elapsed_seconds = watch.ElapsedSeconds();
  return stats;
}

}  // namespace

WorkloadStats RunTpcwWorkload(ClusterController* controller,
                              const std::string& db_name,
                              const TpcwScale& scale,
                              const DriverOptions& options) {
  std::vector<WorkloadStats> session_stats(options.sessions);
  std::vector<std::thread> threads;
  for (int s = 0; s < options.sessions; ++s) {
    threads.emplace_back([&, s] {
      session_stats[s] =
          RunSession(controller, db_name, scale, options,
                     options.seed * 7919 + static_cast<uint64_t>(s) + 1);
    });
  }
  for (auto& t : threads) t.join();
  WorkloadStats total;
  for (const WorkloadStats& s : session_stats) total.Merge(s);
  return total;
}

WorkloadStats RunMultiTenantWorkload(
    ClusterController* controller, const std::vector<std::string>& db_names,
    const TpcwScale& scale, const DriverOptions& options,
    std::vector<WorkloadStats>* per_db) {
  std::vector<WorkloadStats> db_stats(db_names.size());
  std::vector<std::thread> threads;
  for (size_t d = 0; d < db_names.size(); ++d) {
    threads.emplace_back([&, d] {
      DriverOptions tenant_options = options;
      tenant_options.seed = options.seed + d * 1009;
      db_stats[d] =
          RunTpcwWorkload(controller, db_names[d], scale, tenant_options);
    });
  }
  for (auto& t : threads) t.join();
  WorkloadStats total;
  for (const WorkloadStats& s : db_stats) total.Merge(s);
  if (per_db != nullptr) *per_db = db_stats;
  return total;
}

}  // namespace mtdb::workload
