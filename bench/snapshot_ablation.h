#ifndef MTDB_BENCH_SNAPSHOT_ABLATION_H_
#define MTDB_BENCH_SNAPSHOT_ABLATION_H_

#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/tpcw_bench_common.h"

namespace mtdb::bench {

// Isolation ablation shared by `fig3_throughput_browsing --isolation=snapshot`
// and `fig6_deadlocks_browsing --isolation=snapshot`: the same contention-heavy
// TPC-W mix run twice, once with every transaction under strict 2PL and once
// with read-only interactions as MVCC snapshot transactions (writers keep
// strict 2PL either way). Reports TPS and lock-victim aborts side by side,
// read-only interactions' apart from writers', prints the result as its JSON
// report, and returns nonzero unless snapshot beats strict 2PL on
// throughput — the CI gate for the MVCC read path.
//
// The cluster is configured so locking, not the simulated I/O model, is the
// bottleneck: a small hot database, several sessions per tenant, and no cache
// penalty. Under strict 2PL the browse transactions' S locks convoy behind
// BuyConfirm/AdminUpdate X locks (and become deadlock/timeout victims);
// snapshot reads never touch the lock manager, so the browse side runs
// wait-free.
struct IsolationModeResult {
  double tps = 0;
  // Deadlock + lock-wait timeout victims: the read-only interactions' and
  // the writers'.
  int64_t reader_lock_aborts = 0;
  int64_t writer_lock_aborts = 0;
};

struct SnapshotAblationResult {
  IsolationModeResult strict;
  IsolationModeResult snapshot;
};

inline SnapshotAblationResult RunSnapshotAblationOnce(workload::TpcwMix mix,
                                                      int64_t duration_ms) {
  SnapshotAblationResult result;
  for (bool snapshot : {false, true}) {
    TpcwClusterConfig cluster_config;
    cluster_config.machines = 2;
    cluster_config.num_databases = 2;
    cluster_config.replicas = 2;
    cluster_config.read_option = ReadRoutingOption::kPerTransaction;
    // Small hot database so browse reads keep landing on rows the write
    // interactions update.
    cluster_config.scale.items = 24;
    cluster_config.scale.customers = 48;
    cluster_config.scale.initial_orders = 24;
    cluster_config.cache_miss_penalty_us = 0;
    cluster_config.buffer_pool_pages = 0;
    cluster_config.base_op_latency_us = 0;
    cluster_config.lock_timeout_us = 150'000;
    std::vector<std::string> dbs;
    auto controller = BuildTpcwCluster(cluster_config, &dbs);
    // Model slow replicated writes with the same latency-injection hook the
    // Table 1 experiments use: each write op stalls 2ms inside the engine,
    // i.e. while the writer sits on its X locks. Both modes pay identically
    // on the write side; the ablation isolates what happens to readers
    // queued behind those locks (2PL) vs reading a snapshot version
    // (lock-free).
    controller->SetLatencyInjector(
        [](const std::string&, bool is_write, int) -> int64_t {
          return is_write ? 2'000 : 0;
        });

    workload::DriverOptions driver;
    driver.mix = mix;
    driver.sessions = 6;
    driver.duration_ms = duration_ms;
    driver.seed = 99;
    driver.snapshot_reads = snapshot;
    workload::WorkloadStats stats = workload::RunMultiTenantWorkload(
        controller.get(), dbs, cluster_config.scale, driver);
    IsolationModeResult& mode = snapshot ? result.snapshot : result.strict;
    mode.tps = stats.Tps();
    mode.reader_lock_aborts = stats.read_lock_aborts;
    mode.writer_lock_aborts =
        stats.deadlock_aborts + stats.timeout_aborts - stats.read_lock_aborts;
  }
  return result;
}

inline int RunSnapshotAblation(const std::string& figure_id,
                               workload::TpcwMix mix) {
  PrintHeader(figure_id + " (isolation ablation)",
              std::string("Strict 2PL vs MVCC snapshot reads, ") +
                  std::string(workload::TpcwMixName(mix)) + " mix");
  const int64_t duration_ms = BenchMs(1500);

  // Best-of-3 per mode to shave scheduler noise off short runs.
  SnapshotAblationResult best;
  for (int trial = 0; trial < 3; ++trial) {
    SnapshotAblationResult r = RunSnapshotAblationOnce(mix, duration_ms);
    if (r.strict.tps > best.strict.tps) best.strict = r.strict;
    if (r.snapshot.tps > best.snapshot.tps) best.snapshot = r.snapshot;
  }

  double ratio =
      best.strict.tps > 0 ? best.snapshot.tps / best.strict.tps : 0;
  PrintRow({"isolation", "TPS", "reader lock aborts", "writer lock aborts"});
  for (const auto& [name, mode] :
       {std::pair{"strict-2PL", best.strict},
        std::pair{"snapshot-reads", best.snapshot}}) {
    PrintRow({name, Fmt(mode.tps, 1), std::to_string(mode.reader_lock_aborts),
              std::to_string(mode.writer_lock_aborts)});
  }
  PrintRow({"snapshot/2PL", Fmt(ratio, 2) + "x", "", ""});

  Report report;
  report.Set("figure", figure_id);
  report.Set("mix", workload::TpcwMixName(mix));
  report.Set("strict_2pl_tps", best.strict.tps, 1);
  report.Set("snapshot_tps", best.snapshot.tps, 1);
  report.Set("snapshot_over_2pl", ratio, 3);
  report.Set("strict_2pl_reader_lock_aborts", best.strict.reader_lock_aborts);
  report.Set("strict_2pl_writer_lock_aborts", best.strict.writer_lock_aborts);
  report.Set("snapshot_reader_lock_aborts", best.snapshot.reader_lock_aborts);
  report.Set("snapshot_writer_lock_aborts", best.snapshot.writer_lock_aborts);
  // CI gate: snapshot reads must strictly beat the lock-based browse path.
  report.Gate("snapshot_tps > strict_2pl_tps",
              best.snapshot.tps > best.strict.tps);
  return report.Finish();
}

}  // namespace mtdb::bench

#endif  // MTDB_BENCH_SNAPSHOT_ABLATION_H_
