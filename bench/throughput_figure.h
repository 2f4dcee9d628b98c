#ifndef MTDB_BENCH_THROUGHPUT_FIGURE_H_
#define MTDB_BENCH_THROUGHPUT_FIGURE_H_

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/tpcw_bench_common.h"

namespace mtdb::bench {

// Shared harness for Figures 2/3/4: throughput with synchronous replication
// under the three read-routing options vs. the no-replication baseline, as a
// function of concurrent client sessions per database. Conservative write
// policy throughout (the serializable configuration).
inline void RunThroughputFigure(const std::string& figure_id, workload::TpcwMix mix) {
  PrintHeader(figure_id,
              std::string("Throughput with Synchronous Replication, ") +
                  std::string(workload::TpcwMixName(mix)) + " mix (TPS)");

  const int64_t duration_ms = BenchMs(1500);
    // Two session counts per database: enough to show scaling while keeping
  // the host (which simulates every machine) out of CPU saturation, where
  // scheduler noise would swamp the ~10-20% routing effects.
  std::vector<int> session_counts = {1, 2};

  struct Config {
    const char* label;
    int replicas;
    ReadRoutingOption option;
  };
  const Config configs[] = {
      {"no-replication", 1, ReadRoutingOption::kPerDatabase},
      {"option-1 (per-db)", 2, ReadRoutingOption::kPerDatabase},
      {"option-2 (per-txn)", 2, ReadRoutingOption::kPerTransaction},
      {"option-3 (per-op)", 2, ReadRoutingOption::kPerOperation},
  };

  std::vector<std::string> header = {"config"};
  for (int s : session_counts) {
    header.push_back(std::to_string(s) + " sess/db");
  }
  header.push_back("cache-hit%");
  PrintRow(header);

  for (const Config& config : configs) {
    std::vector<std::string> row = {config.label};
    double hit_rate = 0;
    for (int sessions : session_counts) {
      // Fresh cluster per cell so earlier runs' inserted data and cache
      // state do not leak into later measurements.
      TpcwClusterConfig cluster_config;
      cluster_config.read_option = config.option;
      cluster_config.replicas = config.replicas;
      std::vector<std::string> dbs;
      auto controller = BuildTpcwCluster(cluster_config, &dbs);

      workload::DriverOptions driver;
      driver.mix = mix;
      driver.sessions = sessions;
      driver.duration_ms = duration_ms;
      driver.seed = 1234;
      workload::WorkloadStats stats = workload::RunMultiTenantWorkload(
          controller.get(), dbs, cluster_config.scale, driver);
      row.push_back(Fmt(stats.Tps(), 1));

      int64_t hits = 0, misses = 0;
      for (int id : controller->MachineIds()) {
        hits += controller->machine(id)->engine()->buffer_cache().hits();
        misses += controller->machine(id)->engine()->buffer_cache().misses();
      }
      hit_rate = (hits + misses) == 0
                     ? 0
                     : 100.0 * static_cast<double>(hits) / (hits + misses);
    }
    row.push_back(Fmt(hit_rate, 1));
    PrintRow(row);
  }
  std::printf(
      "expected shape: option-1 within ~5-25%% of no-replication and the\n"
      "best replicated option; option-3 worst (cache locality, Section 5).\n");
}

}  // namespace mtdb::bench

#endif  // MTDB_BENCH_THROUGHPUT_FIGURE_H_
