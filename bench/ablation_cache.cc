// Ablation: the buffer-pool model is the mechanism behind the Option 1 > 2
// > 3 throughput ordering of Figures 2-4. With cache modeling disabled the
// three options converge.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/tpcw_bench_common.h"

int main() {
  using namespace mtdb;
  using namespace mtdb::bench;

  PrintHeader("Ablation", "Buffer-pool locality effect on read routing (TPS)");
  const int64_t duration_ms = BenchMs(700);

  PrintRow({"config", "TPS (cache ON)", "hit% (ON)", "TPS (cache OFF)"});
  const struct {
    const char* label;
    ReadRoutingOption option;
  } configs[] = {
      {"option-1 (per-db)", ReadRoutingOption::kPerDatabase},
      {"option-2 (per-txn)", ReadRoutingOption::kPerTransaction},
      {"option-3 (per-op)", ReadRoutingOption::kPerOperation},
  };
  for (const auto& config : configs) {
    std::vector<std::string> row = {config.label};
    std::string off_tps;
    for (bool cache_on : {true, false}) {
      TpcwClusterConfig cluster_config;
      cluster_config.read_option = config.option;
      if (!cache_on) {
        // Ablate ONLY the buffer-pool model; the base service time stays so
        // the comparison is not swamped by host-CPU saturation noise.
        cluster_config.buffer_pool_pages = 0;
        cluster_config.cache_miss_penalty_us = 0;
      }
      std::vector<std::string> dbs;
      auto controller = BuildTpcwCluster(cluster_config, &dbs);
      workload::DriverOptions driver;
      driver.mix = workload::TpcwMix::kShopping;
      driver.sessions = 2;
      driver.duration_ms = duration_ms;
      auto stats = workload::RunMultiTenantWorkload(
          controller.get(), dbs, cluster_config.scale, driver);
      if (cache_on) {
        row.push_back(Fmt(stats.Tps(), 1));
        int64_t hits = 0, misses = 0;
        for (int id : controller->MachineIds()) {
          hits += controller->machine(id)->engine()->buffer_cache().hits();
          misses += controller->machine(id)->engine()->buffer_cache().misses();
        }
        row.push_back(Fmt(
            (hits + misses) == 0
                ? 0
                : 100.0 * static_cast<double>(hits) / (hits + misses),
            1));
      } else {
        off_tps = Fmt(stats.Tps(), 1);
      }
    }
    row.push_back(off_tps);
    PrintRow(row);
  }
  std::printf(
      "expected shape: with the cache model ON, option 1 has the best hit\n"
      "rate and throughput (the mechanism behind Figures 2-4); with it OFF\n"
      "the options converge to within run-to-run noise.\n");
  return 0;
}
