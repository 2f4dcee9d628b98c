#include "src/cluster/rebalance/planner.h"

#include <algorithm>
#include <limits>

namespace mtdb::rebalance {

namespace {
// How far above the balanced bound the hottest machine may run before a
// move is proposed.
constexpr double kSlack = 1.05;
}  // namespace

double Utilization(const ResourceVector& load, const ResourceVector& capacity) {
  double u = 0.0;
  if (capacity.cpu > 0) u = std::max(u, load.cpu / capacity.cpu);
  if (capacity.memory_mb > 0) {
    u = std::max(u, load.memory_mb / capacity.memory_mb);
  }
  if (capacity.disk_mb > 0) u = std::max(u, load.disk_mb / capacity.disk_mb);
  if (capacity.disk_io > 0) u = std::max(u, load.disk_io / capacity.disk_io);
  return u;
}

std::optional<MigrationPlan> FirstFitReplanner::Plan(
    const ClusterLoadView& view) const {
  std::vector<const MachineLoad*> alive;
  for (const MachineLoad& m : view.machines) {
    if (m.alive) alive.push_back(&m);
  }
  if (alive.size() < 2 || view.tenants.empty()) return std::nullopt;

  const MachineLoad* hottest = *std::max_element(
      alive.begin(), alive.end(), [](const MachineLoad* a,
                                     const MachineLoad* b) {
        return Utilization(a->load, a->capacity) <
               Utilization(b->load, b->capacity);
      });
  double hot_u = Utilization(hottest->load, hottest->capacity);

  // The yardstick the hottest machine is judged against: what a balanced
  // cluster would run at, the classic makespan lower bound — total demand
  // spread evenly over the alive machines, but never below the largest
  // single tenant, which is unsplittable.
  ResourceVector total;
  for (const TenantLoad& t : view.tenants) total += t.demand;
  const ResourceVector& capacity = alive.front()->capacity;
  double balanced_max =
      Utilization(total, capacity) / static_cast<double>(alive.size());
  for (const TenantLoad& t : view.tenants) {
    balanced_max = std::max(balanced_max, Utilization(t.demand, capacity));
  }
  if (hot_u <= balanced_max * kSlack) return std::nullopt;

  // Greedy move: largest-demand tenant on the hottest machine, to the
  // coldest machine not already hosting it whose load after the move still
  // improves on the hottest machine's. FitsIn is preferred but not required
  // — on an overcommitted cluster any strict improvement beats standing
  // still.
  const TenantLoad* candidate = nullptr;
  for (const TenantLoad& t : view.tenants) {
    if (std::find(t.replicas.begin(), t.replicas.end(), hottest->id) ==
        t.replicas.end()) {
      continue;
    }
    if (candidate == nullptr ||
        Utilization(t.demand, capacity) >
            Utilization(candidate->demand, capacity)) {
      candidate = &t;
    }
  }
  if (candidate == nullptr) return std::nullopt;

  const MachineLoad* target = nullptr;
  double target_u = std::numeric_limits<double>::infinity();
  for (const MachineLoad* m : alive) {
    if (m->id == hottest->id) continue;
    if (std::find(candidate->replicas.begin(), candidate->replicas.end(),
                  m->id) != candidate->replicas.end()) {
      continue;
    }
    double after_u = Utilization(m->load + candidate->demand, m->capacity);
    if (after_u >= hot_u) continue;  // the move would just shift the hotspot
    if (after_u < target_u) {
      target = m;
      target_u = after_u;
    }
  }
  if (target == nullptr) return std::nullopt;

  MigrationPlan plan;
  plan.database = candidate->database;
  plan.source_machine = hottest->id;
  plan.target_machine = target->id;
  plan.demand = candidate->demand;
  plan.reason = "machine " + std::to_string(hottest->id) + " at " +
                std::to_string(hot_u) + "x capacity vs balanced bound " +
                std::to_string(balanced_max);
  return plan;
}

}  // namespace mtdb::rebalance
