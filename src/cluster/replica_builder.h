#ifndef MTDB_CLUSTER_REPLICA_BUILDER_H_
#define MTDB_CLUSTER_REPLICA_BUILDER_H_

// The replica pipeline (DESIGN.md §16): every copy of a tenant from one
// machine to another, whether it rebuilds a replica lost to a machine
// failure (the background replication process of Section 3.2) or moves a
// replica for the rebalancer (a live migration).
//
// Every copy takes the same steps:
//
//   claim     ClusterController::BeginCopy puts the copy in the tenant's one
//             CopyState; a second copy of the same tenant is refused until
//             this one completes or aborts, whichever kind it is.
//   copy      the database is created on the target, then every table is
//             dumped on the source and installed on the target. A dump
//             ships as the log's own records (a kCreateTable, then one
//             kInsert per row), and the target replays it, and every
//             delta, through the one replay that logs what it applies.
//             There are three modes:
//               table-locked     Algorithm 1: writes to the table being
//                                copied are rejected; once installed, the
//                                table's writes also reach the target.
//               database-locked  Algorithm 1 with one "*" window: every
//                                write is rejected while the dump holds its
//                                read lock on every table.
//               online           (moves) the source serves reads and writes
//                                throughout; WAL delta rounds catch the
//                                target up, then a freeze (new begins back
//                                off, pins drain) ships the final delta. A
//                                source without a WAL freezes first and
//                                copies a quiet tenant.
//   complete  ClusterController::CompleteCopy adds the target as a replica
//             (recovery) or puts it in the source's slot (move), and pushes
//             the tenant's quota to it. A move then drops the source copy.
//   abort     any failure after the claim stops routing writes to the
//             target, drains the tenant's transactions if writes reached
//             the target, drops the target's partial copy and clears the
//             state. Placement is never touched before completion.
//
// ReplicaBuilderOptions::granularity picks the recovery mode (Figures 8/9);
// a move is always online.

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/rebalance/planner.h"
#include "src/common/result.h"

namespace mtdb {

class ClusterController;

// Lock scope of a recovery copy (Figures 8/9): table-level copying rejects
// writes only to the table being copied; database-level copying holds read
// locks on every table for the whole copy and rejects all writes to the
// database.
enum class CopyGranularity { kTable, kDatabase };

struct ReplicaBuilderOptions {
  // Concurrent recovery copies RecoverAll runs ("recovery threads",
  // Figure 8's x-axis).
  int recovery_threads = 1;
  CopyGranularity granularity = CopyGranularity::kTable;
  // Per-row copy cost while the dump holds its read lock (models the
  // paper's ~2 minutes per 200 MB, scaled for experiments).
  int64_t per_row_delay_us = 0;
};

// Result of recovering one database.
struct RecoveryResult {
  std::string database;
  Status status;
  int source_machine = -1;
  int target_machine = -1;
  int64_t duration_us = 0;
};

// Registers the copy metric series (mtdb_recovery_copy_us and the
// mtdb_rebalance_* migration series; idempotent), so they appear in stats
// dumps at zero before the first copy runs.
void RegisterReplicaMetrics();

class ReplicaBuilder {
 public:
  explicit ReplicaBuilder(ClusterController* controller,
                          ReplicaBuilderOptions options = {});

  // Recovers every database that has fewer than `target_replicas` alive
  // replicas (call after a FailMachine). Blocks until all copies finish;
  // copies run on options.recovery_threads concurrent workers. New replicas
  // are placed with First-Fit over machines not already hosting the
  // database.
  std::vector<RecoveryResult> RecoverAll(int target_replicas);

  // Recovers one database onto an explicit target machine, which joins the
  // replica list.
  RecoveryResult RecoverDatabase(const std::string& db_name,
                                 int target_machine);

  // Moves the plan's replica from its source to its target machine while
  // the tenant keeps serving: the target takes the source's slot and the
  // source copy is dropped. On error the move has been aborted: placement
  // unchanged, target copy dropped.
  Status Migrate(const rebalance::MigrationPlan& plan);

 private:
  // One copy in flight.
  struct Copy {
    Copy(std::string db, int source, int target, bool move)
        : db(std::move(db)), source(source), target(target), move(move) {}
    std::string db;
    int source;
    int target;
    bool move;
    // Concurrent copies share disk/network bandwidth: the per-row delay
    // scales with the number of copies in flight when this one starts.
    int64_t per_row_delay_us = 0;
    uint64_t trace_id = 0;  // moves only
    int64_t frozen_us = 0;  // when FreezeAndDrain froze the tenant
  };

  // First-Fit: the lowest-id alive machine not already hosting db_name.
  Result<int> ChooseTarget(const std::string& db_name);
  // Claim, copy, complete; aborts on any failure after the claim.
  Status Build(Copy& copy);
  // Creates the database on the target and installs every table of the
  // source; recovery copies take Algorithm 1's write gates.
  Status CopyTables(const Copy& copy);
  // A move's copy: bulk copy, delta rounds, freeze, final delta.
  Status CopyOnline(Copy& copy);
  // Ships the source's committed WAL suffix past *cursor to the target.
  Result<size_t> ShipDelta(const Copy& copy, uint64_t* cursor);
  // Replays records on the target (kApplyRecords), a bulk copy's or a
  // delta's alike, counting a move's shipped bytes.
  Status Install(const Copy& copy, const std::vector<std::string>& records);
  // New begins back off, no write is routed to the target, and the
  // transactions already pinning the tenant drain.
  Status FreezeAndDrain(Copy& copy);
  Status Abort(Copy& copy, const Status& cause);

  ClusterController* controller_;
  ReplicaBuilderOptions options_;
  std::atomic<int> active_copies_{0};
};

}  // namespace mtdb

#endif  // MTDB_CLUSTER_REPLICA_BUILDER_H_
