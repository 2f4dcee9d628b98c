#ifndef MTDB_CLUSTER_REBALANCE_TENANT_MIGRATOR_H_
#define MTDB_CLUSTER_REBALANCE_TENANT_MIGRATOR_H_

// Live tenant migration (DESIGN.md §16).
//
// Executes one MigrationPlan: move a tenant's replica from its source
// machine to a target machine while the tenant keeps serving. The protocol
// is the recovery copy pipeline plus a WAL-delta tail:
//
//   1. kBulkCopy      dump every table on the source (S-lock snapshot, so
//                     only committed data) and install it on the target.
//                     The source serves reads AND writes throughout.
//   2. kDeltaCatchup  repeatedly ship the committed WAL suffix for the
//                     tenant (kWalDeltaRead/kWalDeltaApply) until a round
//                     comes back small — the target is trailing by
//                     milliseconds.
//   3. kCutover       freeze new begins (throttled via the QoS backoff
//                     machinery, never failed), drain in-flight pins, ship
//                     the final delta, swap the replica list, unfreeze.
//   4. cleanup        drop + evict the tenant on the source.
//
// Sources without a WAL (default in-proc machines) fall back to a frozen
// copy: freeze first, then dump — correct, just a longer pause.
//
// Abort from any phase restores kIdle with the placement unchanged and the
// target's partial copy dropped; the tenant never notices.

#include <cstdint>
#include <string>

#include "src/cluster/rebalance/planner.h"
#include "src/common/status.h"

namespace mtdb {
class ClusterController;
}  // namespace mtdb

namespace mtdb::rebalance {

// Registers the mtdb_rebalance_* metric series (idempotent), so they appear
// in stats dumps at zero before the first migration runs.
void RegisterRebalanceMetrics();

struct MigratorOptions {
  // Copy-cost model passed through to the dump RPCs (0 = as fast as the
  // engine goes).
  int64_t per_row_delay_us = 0;
};

class TenantMigrator {
 public:
  explicit TenantMigrator(ClusterController* controller,
                          MigratorOptions options = {});

  // Runs the full protocol synchronously. On error the migration has been
  // aborted cleanly: placement unchanged, migration state back to kIdle,
  // target copy dropped (best effort).
  Status Migrate(const MigrationPlan& plan);

 private:
  Status MigrateLive(const MigrationPlan& plan, uint64_t wal_cursor);
  Status MigrateFrozen(const MigrationPlan& plan);
  // Bulk copy: create the database on the target and install a dump of
  // every table. Shared by both modes.
  Status CopyTables(const MigrationPlan& plan);
  // Cutover entry: freeze begins, drain pins, quiesce routed writes.
  Status FreezeAndDrain(const std::string& database);
  // Restores kIdle (abort or completion) — the only two writers of
  // TenantRecord::migration, both inside this subsystem.
  void ClearMigrationState(const std::string& database);
  Status Abort(const MigrationPlan& plan, const Status& cause,
               uint64_t trace_id = 0);

  ClusterController* controller_;
  MigratorOptions options_;
};

}  // namespace mtdb::rebalance

#endif  // MTDB_CLUSTER_REBALANCE_TENANT_MIGRATOR_H_
