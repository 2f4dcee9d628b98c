#ifndef MTDB_BENCH_DEADLOCK_FIGURE_H_
#define MTDB_BENCH_DEADLOCK_FIGURE_H_

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/tpcw_bench_common.h"

namespace mtdb::bench {

// Shared harness for Figures 5/6/7: deadlock rate (deadlock aborts per
// second) as a function of database size for read Options 1/2/3. Smaller
// databases concentrate updates on fewer rows, raising the deadlock rate;
// the read option should not matter much (the paper found "no significant
// difference").
inline void RunDeadlockFigure(const std::string& figure_id,
                              workload::TpcwMix mix) {
  PrintHeader(figure_id,
              std::string("Deadlock Rate vs Database Size, ") +
                  std::string(workload::TpcwMixName(mix)) + " mix "
                  "(deadlock aborts/sec)");

  const int64_t duration_ms = BenchMs(700);
  const std::vector<int64_t> item_counts = {10, 25, 80, 250};

  const struct {
    const char* label;
    ReadRoutingOption option;
  } configs[] = {
      {"option-1 (per-db)", ReadRoutingOption::kPerDatabase},
      {"option-2 (per-txn)", ReadRoutingOption::kPerTransaction},
      {"option-3 (per-op)", ReadRoutingOption::kPerOperation},
  };

  std::vector<std::string> header = {"config"};
  for (int64_t items : item_counts) {
    header.push_back(std::to_string(items) + " items");
  }
  PrintRow(header);

  for (const auto& config : configs) {
    std::vector<std::string> row = {config.label};
    for (int64_t items : item_counts) {
      TpcwClusterConfig cluster_config;
      cluster_config.read_option = config.option;
      cluster_config.num_databases = 2;
      cluster_config.machines = 4;
      cluster_config.scale.items = items;
      cluster_config.scale.customers = items * 2;
      cluster_config.scale.initial_orders = items;
      // Deadlocks, not cache behaviour, are under test: drop the latency
      // modeling so contention dominates.
      cluster_config.cache_miss_penalty_us = 0;
      cluster_config.buffer_pool_pages = 0;
      cluster_config.base_op_latency_us = 0;
      cluster_config.lock_timeout_us = 250'000;
      std::vector<std::string> dbs;
      auto controller = BuildTpcwCluster(cluster_config, &dbs);

      workload::DriverOptions driver;
      driver.mix = mix;
      driver.sessions = 8;
      driver.duration_ms = duration_ms;
      driver.seed = 4321;
      workload::WorkloadStats stats = workload::RunMultiTenantWorkload(
          controller.get(), dbs, cluster_config.scale, driver);
      row.push_back(Fmt(stats.DeadlockRate(), 2));
    }
    PrintRow(row);
  }
  std::printf(
      "expected shape: deadlock rate falls as the database grows (less row\n"
      "contention); no large difference between the three read options.\n");
}

}  // namespace mtdb::bench

#endif  // MTDB_BENCH_DEADLOCK_FIGURE_H_
