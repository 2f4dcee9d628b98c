#include "src/cluster/rebalance/rebalancer.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/cluster/cluster_controller.h"
#include "src/cluster/machine.h"
#include "src/obs/metrics.h"

namespace mtdb::rebalance {

namespace {

obs::Counter* TicksCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "mtdb_rebalance_ticks_total", {});
  return counter;
}

}  // namespace

Rebalancer::Rebalancer(ClusterController* controller,
                       RebalancerOptions options)
    : controller_(controller), options_(options), migrator_(controller) {}

Rebalancer::~Rebalancer() { Stop(); }

ClusterLoadView Rebalancer::SnapshotLoad() const {
  ClusterLoadView view;
  obs::LoadMonitor* monitor = controller_->load_monitor();
  for (const std::string& name : monitor->ActiveDatabases()) {
    TenantLoad tenant;
    tenant.database = name;
    tenant.demand = monitor->EstimateFor(name);
    tenant.replicas = controller_->ReplicasOf(name);
    if (tenant.replicas.empty()) continue;  // dropped since the snapshot
    view.tenants.push_back(std::move(tenant));
  }
  for (int id : controller_->MachineIds()) {
    Machine* machine = controller_->machine(id);
    if (machine == nullptr) continue;
    MachineLoad load;
    load.id = id;
    load.capacity = machine->capacity();
    load.alive = !machine->failed();
    view.machines.push_back(load);
  }
  for (const TenantLoad& tenant : view.tenants) {
    for (int replica : tenant.replicas) {
      for (MachineLoad& machine : view.machines) {
        if (machine.id == replica) machine.load += tenant.demand;
      }
    }
  }
  return view;
}

bool Rebalancer::Imbalanced(const ClusterLoadView& view) const {
  double max_u = 0.0;
  double sum_u = 0.0;
  int alive = 0;
  for (const MachineLoad& machine : view.machines) {
    if (!machine.alive) continue;
    double u = Utilization(machine.load, machine.capacity);
    max_u = std::max(max_u, u);
    sum_u += u;
    ++alive;
  }
  if (alive < 2) return false;
  double mean_u = sum_u / alive;
  return max_u >= options_.min_utilization &&
         max_u >= options_.imbalance_ratio * std::max(mean_u, 1e-9);
}

Status Rebalancer::Tick() {
  ticks_.fetch_add(1);
  obs::Increment(TicksCounter());
  if (cooldown_left_ > 0) {
    --cooldown_left_;
    return Status::OK();
  }
  ClusterLoadView view = SnapshotLoad();
  if (!Imbalanced(view)) {
    sustain_count_ = 0;
    return Status::OK();
  }
  if (++sustain_count_ < options_.sustain_ticks) return Status::OK();
  // Imbalance sustained: plan, and execute at most one migration.
  sustain_count_ = 0;
  std::optional<MigrationPlan> plan = planner_.Plan(view);
  if (!plan.has_value()) return Status::OK();
  cooldown_left_ = options_.cooldown_ticks;
  Status migrated = migrator_.Migrate(*plan);
  if (migrated.ok()) migrations_.fetch_add(1);
  return migrated;
}

void Rebalancer::Start() {
  if (loop_.joinable()) return;
  stop_.store(false);
  loop_ = std::thread([this] {
    while (!stop_.load()) {
      (void)Tick();
      // Sleep in small slices so Stop() is responsive at second-scale
      // intervals.
      int64_t remaining_us = options_.interval_us;
      while (remaining_us > 0 && !stop_.load()) {
        int64_t slice_us = std::min<int64_t>(remaining_us, 10'000);
        std::this_thread::sleep_for(std::chrono::microseconds(slice_us));
        remaining_us -= slice_us;
      }
    }
  });
}

void Rebalancer::Stop() {
  stop_.store(true);
  if (loop_.joinable()) loop_.join();
}

}  // namespace mtdb::rebalance
