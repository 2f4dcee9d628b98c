#ifndef MTDB_CLUSTER_REBALANCE_PLANNER_H_
#define MTDB_CLUSTER_REBALANCE_PLANNER_H_

// Migration planning: who moves, from where, to where.
//
// The planner sees the cluster exactly as the SLA placer does — measured
// per-tenant ResourceVector demands (LoadMonitor) against per-machine
// capacities — and answers with at most ONE migration. Single-move plans are
// deliberate: a migration is the most expensive maintenance action the
// cluster performs, and issuing one at a time keeps the control loop
// observable (each move's effect lands in the next load window before the
// next plan is drawn up) and bounds the blast radius of a bad estimate.

#include <optional>
#include <string>
#include <vector>

#include "src/common/resource.h"

namespace mtdb::rebalance {

// One machine as the planner sees it.
struct MachineLoad {
  int id = -1;
  ResourceVector capacity;
  // Sum of the measured demands of the tenants hosted here.
  ResourceVector load;
  bool alive = true;
};

// One tenant as the planner sees it: measured per-replica demand plus
// current placement.
struct TenantLoad {
  std::string database;
  ResourceVector demand;
  std::vector<int> replicas;
};

struct ClusterLoadView {
  std::vector<MachineLoad> machines;
  std::vector<TenantLoad> tenants;
};

// The move the rebalancer should execute next.
struct MigrationPlan {
  std::string database;
  int source_machine = -1;
  int target_machine = -1;
  ResourceVector demand;
  // Human-readable planning rationale, for logs and traces.
  std::string reason;
};

// Highest-utilization dimension of `load` against `capacity` (0 when the
// capacity is degenerate). The scalar the imbalance test runs on.
double Utilization(const ResourceVector& load, const ResourceVector& capacity);

// The planner: judges the hottest machine against the balanced-placement
// lower bound — total measured demand spread evenly across the alive
// machines, floored at the largest single (unsplittable) tenant. A move is
// only proposed when the hottest machine exceeds that bound by 5% slack.
// The move itself is greedy: the largest-demand tenant on the hottest
// machine goes to the coldest machine with room.
class FirstFitReplanner {
 public:
  // Returns the single best move, or nullopt when the cluster is balanced
  // enough that no move is worth its cost.
  std::optional<MigrationPlan> Plan(const ClusterLoadView& view) const;
};

}  // namespace mtdb::rebalance

#endif  // MTDB_CLUSTER_REBALANCE_PLANNER_H_
