// Skewed-placement rebalance benchmark for the autonomic rebalancer
// (src/cluster/rebalance/).
//
// Four machines with a small bounded op pool; four point-read tenants all
// packed onto machine 0 — the worst placement the FirstFitPlacer could have
// produced from stale creation-time profiles. Three phases, fresh cluster
// each:
//
//   static    the skewed placement left alone: aggregate TPS is one
//             machine's ceiling, the other three idle.
//   balanced  the same tenants placed one per machine by hand — the
//             best-case reference the rebalancer is chasing.
//   auto      the skewed placement with the Rebalancer running: the control
//             loop must notice the sustained hotspot and live-migrate
//             tenants off machine 0 while the workload keeps running. The
//             phase's TPS includes every migration's disruption.
//
// Prints one JSON report; exits non-zero when the gate fails:
//   auto >= 1.3x static TPS, AND
//   auto recovers >= 30% of the balanced-minus-static gap.
// MTDB_BENCH_MS scales the per-phase duration (default 1200 ms).

#include <unistd.h>

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
#include "src/cluster/rebalance/rebalancer.h"
#include "src/common/clock.h"
#include "src/common/random.h"

namespace mtdb {
namespace {

constexpr int kMachines = 4;
constexpr int kTenants = 4;
constexpr int kThreadsPerTenant = 3;
constexpr int kRows = 200;

std::string TenantName(int i) { return "tenant" + std::to_string(i); }

std::string WalPath(const char* phase, int machine) {
  return "/tmp/mtdb_rebalance_skew_" + std::string(phase) + "_" +
         std::to_string(static_cast<long long>(getpid())) + "_" +
         std::to_string(machine) + ".wal";
}

struct ClusterSetup {
  std::unique_ptr<ClusterController> controller;
  std::vector<std::string> wal_paths;

  ClusterSetup() = default;
  ClusterSetup(ClusterSetup&&) = default;
  ClusterSetup& operator=(ClusterSetup&&) = default;

  ~ClusterSetup() {
    controller.reset();
    for (const std::string& path : wal_paths) std::remove(path.c_str());
  }
};

// Four machines, two op slots each, a visible per-op cost, and a WAL per
// machine so migrations take the live (delta catch-up) path.
ClusterSetup BuildCluster(const char* phase, bool skewed) {
  ClusterSetup setup;
  setup.controller = std::make_unique<ClusterController>();
  for (int m = 0; m < kMachines; ++m) {
    MachineOptions machine;
    machine.max_concurrent_ops = 2;
    machine.base_op_latency_us = 300;
    machine.engine_options.wal_path = WalPath(phase, m);
    std::remove(machine.engine_options.wal_path.c_str());
    setup.wal_paths.push_back(machine.engine_options.wal_path);
    setup.controller->AddMachine(machine);
  }
  for (int i = 0; i < kTenants; ++i) {
    std::string db = TenantName(i);
    int home = skewed ? 0 : i % kMachines;
    if (!setup.controller->CreateDatabaseOn(db, {home}).ok() ||
        !setup.controller
             ->ExecuteDdl(db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
             .ok()) {
      std::fprintf(stderr, "rebalance_skew: cluster setup failed\n");
      std::exit(1);
    }
    std::vector<Row> rows;
    for (int64_t r = 0; r < kRows; ++r) rows.push_back({Value(r), Value(r)});
    if (!setup.controller->BulkLoad(db, "t", rows).ok()) {
      std::fprintf(stderr, "rebalance_skew: bulk load failed\n");
      std::exit(1);
    }
  }
  return setup;
}

struct PhaseResult {
  double aggregate_tps = 0;
  int64_t failed = 0;
};

// Point reads across all tenants until the duration elapses. Every failure
// that is not an admission throttle counts against the phase — live
// migration must never fail a transaction.
PhaseResult RunPhase(ClusterController* controller, int64_t duration_ms) {
  std::atomic<bool> stop{false};
  std::atomic<int64_t> committed{0};
  std::atomic<int64_t> failed{0};
  std::vector<std::thread> workers;
  int64_t start_us = NowMicros();
  for (int i = 0; i < kTenants; ++i) {
    for (int t = 0; t < kThreadsPerTenant; ++t) {
      workers.emplace_back([controller, i, t, &stop, &committed, &failed] {
        auto conn = controller->Connect(TenantName(i));
        Random rng(static_cast<uint64_t>(i) * 104729 + t * 7919 + 1);
        while (!stop.load(std::memory_order_relaxed)) {
          auto id = static_cast<int64_t>(rng.Uniform(kRows));
          auto result =
              conn->Execute("SELECT v FROM t WHERE id = ?", {Value(id)});
          if (result.ok()) {
            committed.fetch_add(1, std::memory_order_relaxed);
          } else if (result.status().code() !=
                     StatusCode::kResourceExhausted) {
            failed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& worker : workers) worker.join();
  double elapsed_s = static_cast<double>(NowMicros() - start_us) / 1e6;
  PhaseResult result;
  result.aggregate_tps = static_cast<double>(committed.load()) / elapsed_s;
  result.failed = failed.load();
  return result;
}

}  // namespace
}  // namespace mtdb

int main() {
  using namespace mtdb;
  const int64_t duration_ms = bench::BenchMs(1200);

  auto static_cluster = BuildCluster("static", /*skewed=*/true);
  PhaseResult skewed = RunPhase(static_cluster.controller.get(), duration_ms);

  auto balanced_cluster = BuildCluster("balanced", /*skewed=*/false);
  PhaseResult balanced =
      RunPhase(balanced_cluster.controller.get(), duration_ms);

  // Auto phase: same skewed start, rebalancer running. The loop is tuned
  // aggressive for a benchmark-scale window (sustained over ~2 ticks of
  // 60 ms); correctness does not depend on the tuning, only how many moves
  // land inside the phase does.
  auto auto_cluster = BuildCluster("auto", /*skewed=*/true);
  rebalance::RebalancerOptions rebalance_options;
  rebalance_options.interval_us = 60'000;
  rebalance_options.imbalance_ratio = 1.2;
  rebalance_options.min_utilization = 1e-6;
  rebalance_options.sustain_ticks = 2;
  rebalance_options.cooldown_ticks = 1;
  rebalance::Rebalancer rebalancer(auto_cluster.controller.get(),
                                   rebalance_options);
  rebalancer.Start();
  PhaseResult autonomous =
      RunPhase(auto_cluster.controller.get(), duration_ms);
  rebalancer.Stop();
  int64_t migrations = rebalancer.migrations_executed();

  double vs_static =
      skewed.aggregate_tps > 0 ? autonomous.aggregate_tps / skewed.aggregate_tps
                               : 0;
  double gap = balanced.aggregate_tps - skewed.aggregate_tps;
  double recovery =
      gap > 0 ? (autonomous.aggregate_tps - skewed.aggregate_tps) / gap : 0;

  bench::Report report;
  report.Set("static_tps", skewed.aggregate_tps, 1);
  report.Set("balanced_tps", balanced.aggregate_tps, 1);
  report.Set("auto_tps", autonomous.aggregate_tps, 1);
  report.Set("auto_vs_static", vs_static, 3);
  report.Set("recovery_fraction", recovery, 3);
  report.Set("migrations_executed", migrations);
  report.Set("failed_txns_static", skewed.failed);
  report.Set("failed_txns_auto", autonomous.failed);
  report.Gate("auto >= 1.3x static and recovery >= 0.30",
              vs_static >= 1.3 && recovery >= 0.30 && skewed.failed == 0 &&
                  autonomous.failed == 0);
  return report.Finish();
}
