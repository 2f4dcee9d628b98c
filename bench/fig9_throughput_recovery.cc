// Regenerates Figure 9: workload throughput during recovery, database-level
// vs table-level copying (plus a no-failure baseline).
#include "bench/recovery_figure.h"

int main() {
  using mtdb::CopyGranularity;
  using namespace mtdb::bench;

  PrintHeader("Figure 9", "Throughput during Recovery (TPS)");
  const int64_t workload_ms = BenchMs(2200, /*scale=*/3);

  PrintRow({"configuration", "TPS", "recovery-sec"});

  // Baseline: same cluster and workload, no failure, no recovery.
  {
    TpcwClusterConfig config;
    config.machines = 8;
    config.num_databases = 8;
    config.replicas = 2;
    config.scale.items = 40;
    config.scale.customers = 80;
    config.scale.initial_orders = 40;
    config.buffer_pool_pages = 0;
    config.cache_miss_penalty_us = 0;
    config.base_op_latency_us = 0;
    std::vector<std::string> dbs;
    auto controller = BuildTpcwCluster(config, &dbs);
    mtdb::workload::DriverOptions driver;
    driver.mix = mtdb::workload::TpcwMix::kShopping;
    driver.sessions = 2;
    driver.duration_ms = workload_ms;
    auto stats = mtdb::workload::RunMultiTenantWorkload(controller.get(), dbs,
                                                        config.scale, driver);
    PrintRow({"no failure (baseline)", Fmt(stats.Tps(), 1), "-"});
  }

  for (CopyGranularity granularity :
       {CopyGranularity::kTable, CopyGranularity::kDatabase}) {
    RecoveryRunStats stats = RunRecoveryExperiment(
        /*recovery_threads=*/2, granularity, /*per_row_delay_us=*/1500,
        workload_ms);
    PrintRow({granularity == CopyGranularity::kTable ? "table-level copy"
                                                     : "database-level copy",
              Fmt(stats.tps_during_recovery, 1),
              Fmt(stats.recovery_seconds, 2)});
  }
  std::printf(
      "expected shape: the two copy granularities deliver roughly the same\n"
      "throughput during recovery (table-level admits writes that are later\n"
      "wasted by aborts; database-level fails them fast), both below the\n"
      "no-failure baseline.\n");
  return 0;
}
