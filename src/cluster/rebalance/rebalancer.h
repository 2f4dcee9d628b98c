#ifndef MTDB_CLUSTER_REBALANCE_REBALANCER_H_
#define MTDB_CLUSTER_REBALANCE_REBALANCER_H_

// The autonomic rebalance control loop (DESIGN.md §16).
//
// Closes the loop the paper leaves open between measurement and placement:
// LoadMonitor measures per-tenant demand from committed transactions, the
// SLA placer knows how to pack demands onto machines, and this loop notices
// when the measured placement has drifted hot and fixes it with ONE live
// migration at a time.
//
// Deliberately conservative: imbalance must SUSTAIN for several consecutive
// observation ticks before a plan is drawn up (hysteresis — a one-window
// burst never triggers a migration), and every executed migration is
// followed by a cooldown during which no new plan is considered (the moved
// load must show up in the next windows before the cluster is judged
// again). Both guards exist to prevent migration thrash, the classic
// failure mode of autonomic placement loops.

#include <atomic>
#include <cstdint>
#include <thread>

#include "src/cluster/rebalance/planner.h"
#include "src/cluster/replica_builder.h"
#include "src/common/status.h"

namespace mtdb {
class ClusterController;
}  // namespace mtdb

namespace mtdb::rebalance {

struct RebalancerOptions {
  // Background-loop observation period.
  int64_t interval_us = 500'000;
  // Imbalance test: hottest machine ≥ ratio × mean utilization …
  double imbalance_ratio = 1.5;
  // … and at least this utilization outright (an idle cluster with one
  // near-idle machine "1.5× hotter" than the rest must not migrate).
  double min_utilization = 0.05;
  // Consecutive imbalanced ticks before planning (hysteresis).
  int sustain_ticks = 3;
  // Ticks to sit out after an executed migration (cooldown).
  int cooldown_ticks = 4;
};

class Rebalancer {
 public:
  Rebalancer(ClusterController* controller, RebalancerOptions options = {});
  ~Rebalancer();

  Rebalancer(const Rebalancer&) = delete;
  Rebalancer& operator=(const Rebalancer&) = delete;

  // One deterministic control-loop step: observe, test, maybe plan, maybe
  // migrate. Public so tests and benches can drive the loop without the
  // background thread. Returns OK when nothing needed doing or the
  // migration succeeded; the migration's error otherwise (the loop itself
  // treats errors as "try again after cooldown").
  Status Tick();

  // Background operation: Tick every interval_us until Stop. The thread is
  // always joined (never detached).
  void Start();
  void Stop();

  // Introspection for tests.
  int64_t ticks() const { return ticks_.load(); }
  int64_t migrations_executed() const { return migrations_.load(); }

  // The view Tick planned from (rebuilt each call); exposed for tests.
  ClusterLoadView SnapshotLoad() const;

 private:
  bool Imbalanced(const ClusterLoadView& view) const;

  ClusterController* controller_;
  RebalancerOptions options_;
  FirstFitReplanner planner_;
  ReplicaBuilder migrator_;

  int sustain_count_ = 0;
  int cooldown_left_ = 0;
  std::atomic<int64_t> ticks_{0};
  std::atomic<int64_t> migrations_{0};

  std::atomic<bool> stop_{false};
  std::thread loop_;
};

}  // namespace mtdb::rebalance

#endif  // MTDB_CLUSTER_REBALANCE_REBALANCER_H_
