#ifndef MTDB_WORKLOAD_DRIVER_H_
#define MTDB_WORKLOAD_DRIVER_H_

#include <string>
#include <vector>

#include "src/cluster/cluster_controller.h"
#include "src/common/histogram.h"
#include "src/workload/tpcw.h"

namespace mtdb::workload {

struct DriverOptions {
  TpcwMix mix = TpcwMix::kShopping;
  // Concurrent client sessions per database (each gets its own connection
  // and thread).
  int sessions = 4;
  int64_t duration_ms = 1000;
  uint64_t seed = 7;
  // Run read-only interactions as MVCC snapshot transactions (writes keep
  // strict 2PL) — the third isolation ablation point.
  bool snapshot_reads = false;
};

// Aggregated outcome of one workload run.
struct WorkloadStats {
  int64_t committed = 0;
  int64_t aborted = 0;          // all aborted transactions
  int64_t deadlock_aborts = 0;  // subset: deadlock victims
  int64_t timeout_aborts = 0;   // subset: lock-wait timeouts
  // Subset of deadlock_aborts + timeout_aborts: the read-only interactions'
  // lock victims, the rest being writers'.
  int64_t read_lock_aborts = 0;
  int64_t rejected = 0;         // proactively rejected (copy windows)
  int64_t unavailable = 0;
  double elapsed_seconds = 0;
  Histogram latency_us;
  int64_t write_committed = 0;

  double Tps() const {
    return elapsed_seconds > 0 ? committed / elapsed_seconds : 0;
  }
  double DeadlockRate() const {
    return elapsed_seconds > 0 ? deadlock_aborts / elapsed_seconds : 0;
  }
  void Merge(const WorkloadStats& other);
};

// Drives `sessions` concurrent TPC-W client sessions against one database
// until the duration elapses. Each session loops: draw an interaction from
// the mix, run it as one transaction, record the outcome.
WorkloadStats RunTpcwWorkload(ClusterController* controller,
                              const std::string& db_name,
                              const TpcwScale& scale,
                              const DriverOptions& options);

// Same, but across several databases simultaneously (each database gets
// `options.sessions` sessions). Returns combined stats; per-database stats
// are returned through `per_db` when non-null.
WorkloadStats RunMultiTenantWorkload(
    ClusterController* controller, const std::vector<std::string>& db_names,
    const TpcwScale& scale, const DriverOptions& options,
    std::vector<WorkloadStats>* per_db = nullptr);

}  // namespace mtdb::workload

#endif  // MTDB_WORKLOAD_DRIVER_H_
