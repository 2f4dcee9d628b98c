#include "src/cluster/rebalance/planner.h"

#include <algorithm>
#include <limits>

#include "src/sla/placement.h"

namespace mtdb::rebalance {

namespace {
// How far above the re-solved balanced bound the hottest machine may run
// before a move is proposed.
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

  // Re-solve placement from scratch: first-fit decreasing over the measured
  // demands, on the uniform capacity of the pool. On a packable cluster the
  // FFD bin count goes into the plan's rationale; when a single measured
  // demand overcommits a whole machine the packing fails, but that must not
  // stop the planner — spreading the load is all that is left then.
  std::vector<sla::DatabaseDemand> demands;
  demands.reserve(view.tenants.size());
  for (const TenantLoad& t : view.tenants) {
    sla::DatabaseDemand d;
    d.name = t.database;
    d.requirement = t.demand;
    d.replicas = static_cast<int>(t.replicas.size());
    demands.push_back(std::move(d));
  }
  std::sort(demands.begin(), demands.end(),
            [](const sla::DatabaseDemand& a, const sla::DatabaseDemand& b) {
              return Utilization(a.requirement, ResourceVector(1, 1, 1, 1)) >
                     Utilization(b.requirement, ResourceVector(1, 1, 1, 1));
            });
  const ResourceVector& capacity = alive.front()->capacity;
  sla::FirstFitPlacer placer(capacity);
  bool packable = true;
  for (const sla::DatabaseDemand& demand : demands) {
    if (!placer.AddDatabase(demand).ok()) {
      packable = false;
      break;
    }
  }

  // The yardstick the hottest machine is judged against. First-fit packs
  // (it minimizes machines, so its own max utilization IS a hotspot); what
  // a *balanced* cluster would run at is the classic makespan lower bound:
  // total demand spread evenly over the alive machines, but never below the
  // largest single tenant, which is unsplittable.
  ResourceVector total;
  for (const sla::DatabaseDemand& demand : demands) {
    total += demand.requirement;
  }
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
  plan.reason += packable ? " (ffd re-solve: " +
                                std::to_string(placer.loads().size()) +
                                " machines)"
                          : " (measured demands overcommit a machine)";
  return plan;
}

}  // namespace mtdb::rebalance
