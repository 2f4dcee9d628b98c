// Noisy-neighbor isolation benchmark for the QoS layer (src/qos/).
//
// One machine hosts two single-replica tenants on a small bounded op pool.
// A protected tenant runs a light point-read workload; an aggressor floods
// the same machine with 10x the client threads. Three phases:
//
//   solo     protected tenant alone — its entitlement baseline.
//   qos_off  both tenants, FIFO op handoff (the pre-QoS semaphore), no
//            quotas: the aggressor's queue presence starves the protected
//            tenant roughly in proportion to thread counts.
//   qos_on   both tenants, weighted fair queueing + an admission quota on
//            the aggressor: the protected tenant keeps >= 70% of solo.
//
// Prints one JSON report with all three throughputs and the two isolation
// ratios; exits non-zero when the qos_on ratio falls below 0.70 (the CI
// gate). MTDB_BENCH_MS scales the per-phase duration (default 1000 ms).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/cluster_controller.h"
#include "src/common/clock.h"
#include "src/common/random.h"

namespace mtdb {
namespace {

constexpr int kRows = 200;
constexpr int kProtectedThreads = 2;
constexpr int kAggressorThreads = 20;  // 10x the protected tenant

struct ClusterSetup {
  std::unique_ptr<ClusterController> controller;
};

// One machine, two op slots, a visible per-op cost: small enough that an
// aggressor flood actually contends for slots instead of vanishing into
// in-process speed.
ClusterSetup BuildCluster(qos::WeightedFairQueue::Policy policy) {
  ClusterControllerOptions options;
  options.default_replicas = 1;
  ClusterSetup setup;
  setup.controller = std::make_unique<ClusterController>(options);
  MachineOptions machine;
  machine.max_concurrent_ops = 2;
  machine.base_op_latency_us = 300;
  machine.qos.queue_policy = policy;
  setup.controller->AddMachine(machine);
  for (const char* db : {"protected", "aggressor"}) {
    if (!setup.controller->CreateDatabase(db, 1).ok() ||
        !setup.controller
             ->ExecuteDdl(db,
                          "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
             .ok()) {
      std::fprintf(stderr, "noisy_neighbor: cluster setup failed\n");
      std::exit(1);
    }
    std::vector<Row> rows;
    for (int64_t i = 0; i < kRows; ++i) {
      rows.push_back({Value(i), Value(i)});
    }
    if (!setup.controller->BulkLoad(db, "t", rows).ok()) {
      std::fprintf(stderr, "noisy_neighbor: bulk load failed\n");
      std::exit(1);
    }
  }
  return setup;
}

// Single-statement autocommit point reads until `stop`: each transaction
// holds exactly one op slot once, so the workload cannot convoy on itself.
void RunTenant(ClusterController* controller, const std::string& db,
               int threads, std::atomic<bool>* stop,
               std::atomic<int64_t>* committed,
               std::atomic<int64_t>* throttled) {
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([controller, db, t, stop, committed, throttled] {
      auto conn = controller->Connect(db);
      Random rng(static_cast<uint64_t>(t) * 7919 + 1);
      while (!stop->load(std::memory_order_relaxed)) {
        auto id = static_cast<int64_t>(rng.Uniform(kRows));
        auto result =
            conn->Execute("SELECT v FROM t WHERE id = ?", {Value(id)});
        if (result.ok()) {
          committed->fetch_add(1, std::memory_order_relaxed);
        } else if (result.status().code() ==
                   StatusCode::kResourceExhausted) {
          throttled->fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
}

struct PhaseResult {
  double protected_tps = 0;
  double aggressor_tps = 0;
  int64_t aggressor_throttled = 0;
};

PhaseResult RunPhase(ClusterController* controller, bool with_aggressor,
                     int64_t duration_ms) {
  std::atomic<bool> stop{false};
  std::atomic<int64_t> protected_committed{0}, protected_throttled{0};
  std::atomic<int64_t> aggressor_committed{0}, aggressor_throttled{0};
  int64_t start_us = NowMicros();
  std::thread protected_load([&] {
    RunTenant(controller, "protected", kProtectedThreads, &stop,
              &protected_committed, &protected_throttled);
  });
  std::thread aggressor_load([&] {
    if (with_aggressor) {
      RunTenant(controller, "aggressor", kAggressorThreads, &stop,
                &aggressor_committed, &aggressor_throttled);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  int64_t stop_us = NowMicros();
  stop.store(true, std::memory_order_relaxed);
  protected_load.join();
  aggressor_load.join();
  // Rates over [start, stop] only: the join can come a throttle backoff
  // (up to 150 ms) after `stop`, time in which neither tenant was running.
  double elapsed_s = static_cast<double>(stop_us - start_us) / 1e6;
  PhaseResult result;
  result.protected_tps =
      static_cast<double>(protected_committed.load()) / elapsed_s;
  result.aggressor_tps =
      static_cast<double>(aggressor_committed.load()) / elapsed_s;
  result.aggressor_throttled = aggressor_throttled.load();
  return result;
}

}  // namespace
}  // namespace mtdb

int main() {
  using namespace mtdb;
  const int64_t duration_ms = bench::BenchMs(1000);

  // Phase 1: the protected tenant alone (FIFO — policy is irrelevant with
  // one tenant, so use the same config the qos_off phase runs under).
  auto solo_cluster = BuildCluster(qos::WeightedFairQueue::Policy::kFifo);
  PhaseResult solo =
      RunPhase(solo_cluster.controller.get(), /*with_aggressor=*/false,
               duration_ms);

  // Phase 2: QoS off — the pre-QoS FIFO handoff, no quotas. The aggressor's
  // 10x thread count buys it a proportional share of the op pool.
  auto off_cluster = BuildCluster(qos::WeightedFairQueue::Policy::kFifo);
  PhaseResult qos_off =
      RunPhase(off_cluster.controller.get(), /*with_aggressor=*/true,
               duration_ms);

  // Phase 3: QoS on — WDRR scheduling, a heavier weight for the protected
  // tenant, and an admission quota that caps the aggressor well below the
  // machine's slot capacity (~6600 ops/s at 2 slots x 300us).
  auto on_cluster =
      BuildCluster(qos::WeightedFairQueue::Policy::kWeightedFair);
  {
    qos::QuotaSpec protected_quota;  // unlimited rate, heavy scheduler share
    protected_quota.weight = 10;
    qos::QuotaSpec aggressor_quota;
    aggressor_quota.rate_tps = 800;
    aggressor_quota.burst = 40;
    aggressor_quota.weight = 1;
    if (!on_cluster.controller->SetDatabaseQuota("protected", protected_quota)
             .ok() ||
        !on_cluster.controller->SetDatabaseQuota("aggressor", aggressor_quota)
             .ok()) {
      std::fprintf(stderr, "noisy_neighbor: SetDatabaseQuota failed\n");
      return 1;
    }
  }
  PhaseResult qos_on =
      RunPhase(on_cluster.controller.get(), /*with_aggressor=*/true,
               duration_ms);

  double off_ratio =
      solo.protected_tps > 0 ? qos_off.protected_tps / solo.protected_tps : 0;
  double on_ratio =
      solo.protected_tps > 0 ? qos_on.protected_tps / solo.protected_tps : 0;

  bench::Report report;
  report.Set("solo_protected_tps", solo.protected_tps, 1);
  report.Set("qos_off_protected_tps", qos_off.protected_tps, 1);
  report.Set("qos_off_aggressor_tps", qos_off.aggressor_tps, 1);
  report.Set("qos_off_ratio", off_ratio, 3);
  report.Set("qos_on_protected_tps", qos_on.protected_tps, 1);
  report.Set("qos_on_aggressor_tps", qos_on.aggressor_tps, 1);
  report.Set("qos_on_aggressor_throttled", qos_on.aggressor_throttled);
  report.Set("qos_on_ratio", on_ratio, 3);
  report.Set("floor", 0.70, 2);
  report.Gate("qos_on_ratio >= floor", on_ratio >= 0.70);
  return report.Finish();
}
