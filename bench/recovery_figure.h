#ifndef MTDB_BENCH_RECOVERY_FIGURE_H_
#define MTDB_BENCH_RECOVERY_FIGURE_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench/bench_util.h"
#include "bench/tpcw_bench_common.h"
#include "src/common/clock.h"
#include "src/cluster/replica_builder.h"

namespace mtdb::bench {

// One recovery experiment: tenants under load, a machine failure, and the
// background replication process running with the given thread count and
// copy granularity. Measures proactively rejected transactions per affected
// database (Figure 8) and throughput during recovery (Figure 9).
struct RecoveryRunStats {
  double rejected_per_db = 0;
  double tps_during_recovery = 0;
  double recovery_seconds = 0;
  int databases_recovered = 0;
  bool ok = true;
};

inline RecoveryRunStats RunRecoveryExperiment(int recovery_threads,
                                              CopyGranularity granularity,
                                              int64_t per_row_delay_us,
                                              int64_t workload_ms) {
  TpcwClusterConfig config;
  config.machines = 8;
  config.num_databases = 8;
  config.replicas = 2;
  config.scale.items = 40;
  config.scale.customers = 80;
  config.scale.initial_orders = 40;
  // Recovery is about copy windows, not cache behaviour.
  config.buffer_pool_pages = 0;
  config.cache_miss_penalty_us = 0;
  config.base_op_latency_us = 0;
  config.read_option = ReadRoutingOption::kPerDatabase;  // paper uses Option 1
  config.lock_timeout_us = 2'000'000;

  std::vector<std::string> dbs;
  auto controller = BuildTpcwCluster(config, &dbs);

  // Fail one machine; every database with a replica there needs recovery.
  int victim = 0;
  controller->FailMachine(victim);
  int affected = 0;
  for (const std::string& db : dbs) {
    for (int id : controller->ReplicasOf(db)) {
      if (id == victim) ++affected;
    }
  }

  ReplicaBuilderOptions recovery_options;
  recovery_options.recovery_threads = recovery_threads;
  recovery_options.granularity = granularity;
  recovery_options.per_row_delay_us = per_row_delay_us;
  ReplicaBuilder recovery(controller.get(), recovery_options);

  RecoveryRunStats stats;
  std::atomic<bool> workload_done{false};
  workload::WorkloadStats workload_stats;
  std::thread load([&] {
    workload::DriverOptions driver;
    driver.mix = workload::TpcwMix::kShopping;
    driver.sessions = 2;
    driver.duration_ms = workload_ms;
    driver.seed = 99;
    workload_stats = workload::RunMultiTenantWorkload(controller.get(), dbs,
                                                      config.scale, driver);
    workload_done = true;
  });

  Stopwatch watch;
  auto results = recovery.RecoverAll(/*target_replicas=*/2);
  stats.recovery_seconds = watch.ElapsedSeconds();
  load.join();

  stats.databases_recovered = 0;
  for (const auto& result : results) {
    if (result.status.ok()) {
      stats.databases_recovered++;
    } else {
      stats.ok = false;
      std::fprintf(stderr, "recovery of %s failed: %s\n",
                   result.database.c_str(), result.status.ToString().c_str());
    }
  }
  (void)affected;
  int64_t rejected = controller->total_rejected_writes();
  stats.rejected_per_db =
      results.empty() ? 0
                      : static_cast<double>(rejected) /
                            static_cast<double>(results.size());
  stats.tps_during_recovery = workload_stats.Tps();
  return stats;
}

}  // namespace mtdb::bench

#endif  // MTDB_BENCH_RECOVERY_FIGURE_H_
