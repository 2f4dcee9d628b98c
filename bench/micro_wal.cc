// Commit-latency / TPS microbenchmark for the group-commit WAL pipeline
// (DESIGN.md §15).
//
// 16 committer threads each run Begin → Update(own row) → Commit in a
// closed loop against one engine, under each durability policy:
//
//   per_commit  every commit record pays its own device sync (the seed's
//               one-fsync-per-commit behaviour, reproduced by the pipeline
//               with batch size forced to 1),
//   group       the log thread coalesces everything queued during the
//               previous sync into one write+sync (the default),
//   async       committers are released at OS write; the log thread syncs
//               in the background at most 64 records behind.
//
// Each thread updates only its own row, so the lock manager never blocks a
// committer — the measured difference is purely the durability pipeline.
// The device is modeled: sync_delay_us simulates a log-device sync (~0.4ms,
// low-end NVMe fsync territory) exactly like the engine's
// cache_miss_penalty_us models a data-page miss; on the bare host file
// system an fflush costs ~nothing and every policy would measure the same.
//
// Prints its JSON report and exits non-zero unless group commit reaches
// >= 2x per-commit TPS — CI runs this as the group-commit gate.
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/storage/engine.h"
#include "src/storage/wal/wal.h"

namespace mtdb::bench {
namespace {

constexpr int kCommitters = 16;
constexpr int64_t kSyncDelayUs = 400;  // modeled log-device sync latency

struct PolicyResult {
  std::string name;
  double tps = 0;
  int64_t commits = 0;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  int64_t syncs = 0;
  double records_per_sync = 0;
};

PolicyResult RunPolicy(wal::SyncPolicy policy, int64_t duration_ms,
                       const std::filesystem::path& wal_path) {
  PolicyResult result;
  result.name = wal::SyncPolicyName(policy);
  std::filesystem::remove(wal_path);

  EngineOptions options;
  options.wal_path = wal_path.string();
  options.wal_sync_policy = policy;
  options.wal_async_max_lag_records = 64;
  options.wal_sync_delay_us = kSyncDelayUs;
  Engine engine("bench_wal_" + result.name, options);
  (void)engine.CreateDatabase("db");
  (void)engine.CreateTable("db",
                           TableSchema("slots",
                                       {{"id", ColumnType::kInt64, true},
                                        {"n", ColumnType::kInt64, false}},
                                       0));
  std::vector<Row> rows;
  for (int64_t i = 0; i < kCommitters; ++i) {
    rows.push_back({Value(i), Value(int64_t{0})});
  }
  (void)engine.BulkInsert("db", "slots", rows);

  Histogram latency;
  std::atomic<int64_t> total_commits{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kCommitters);
  for (int t = 0; t < kCommitters; ++t) {
    threads.emplace_back([&, t] {
      Histogram local;
      // Disjoint txn-id ranges per thread; ids are coordinator-assigned in
      // production and only need engine-wide uniqueness.
      uint64_t txn = static_cast<uint64_t>(t) * 100'000'000 + 1;
      int64_t commits = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t start_us = NowMicros();
        if (!engine.Begin(txn).ok()) break;
        if (!engine
                 .Update(txn, "db", "slots", Value(int64_t{t}),
                         {Value(int64_t{t}), Value(static_cast<int64_t>(txn))})
                 .ok()) {
          (void)engine.Abort(txn);
          break;
        }
        if (!engine.Commit(txn).ok()) break;
        local.Record(NowMicros() - start_us);
        ++commits;
        ++txn;
      }
      latency.Merge(local);
      total_commits.fetch_add(commits, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  Stopwatch drain;
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();

  result.commits = total_commits.load();
  // Threads overshoot the deadline by at most one in-flight commit; count
  // the drain so TPS is not inflated.
  result.tps = static_cast<double>(result.commits) /
               (static_cast<double>(duration_ms) / 1000.0 +
                drain.ElapsedSeconds());
  HistogramSnapshot snap = latency.Snapshot();
  result.p50_us = snap.p50;
  result.p99_us = snap.p99;
  result.syncs = engine.wal()->writer()->syncs();
  result.records_per_sync =
      result.syncs > 0
          ? static_cast<double>(engine.wal()->writer()->records_appended()) /
                static_cast<double>(result.syncs)
          : 0;
  std::filesystem::remove(wal_path);
  return result;
}

int Run() {
  const int64_t duration_ms = BenchMs(1500);

  const std::filesystem::path wal_path =
      std::filesystem::temp_directory_path() /
      ("mtdb_bench_wal_" + std::to_string(static_cast<long long>(NowMicros())));

  PrintHeader("wal_group_commit",
              "WAL durability policies, " + std::to_string(kCommitters) +
                  " concurrent committers, " +
                  std::to_string(kSyncDelayUs) + "us modeled device sync");

  std::vector<PolicyResult> results;
  for (wal::SyncPolicy policy :
       {wal::SyncPolicy::kPerCommit, wal::SyncPolicy::kGroup,
        wal::SyncPolicy::kAsync}) {
    results.push_back(RunPolicy(policy, duration_ms, wal_path));
  }

  PrintRow({"policy", "commits/s", "p50 us", "p99 us", "recs/sync"});
  for (const PolicyResult& r : results) {
    PrintRow({r.name, Fmt(r.tps, 0), std::to_string(r.p50_us),
              std::to_string(r.p99_us), Fmt(r.records_per_sync, 1)});
  }
  const PolicyResult& per_commit = results[0];
  const PolicyResult& group = results[1];
  const PolicyResult& async = results[2];
  double group_speedup =
      per_commit.tps > 0 ? group.tps / per_commit.tps : 0;
  double async_speedup =
      per_commit.tps > 0 ? async.tps / per_commit.tps : 0;
  PrintRow({"group/per_commit", Fmt(group_speedup, 2) + "x"});
  PrintRow({"async/per_commit", Fmt(async_speedup, 2) + "x"});

  Report report;
  report.Set("experiment", "wal_group_commit");
  report.Set("committers", kCommitters);
  report.Set("sync_delay_us", kSyncDelayUs);
  report.Set("duration_ms", duration_ms);
  for (const PolicyResult& r : results) {
    const std::string policy = "policies." + r.name + ".";
    report.Set(policy + "commits_per_sec", r.tps, 0);
    report.Set(policy + "p50_us", r.p50_us);
    report.Set(policy + "p99_us", r.p99_us);
    report.Set(policy + "device_syncs", r.syncs);
    report.Set(policy + "records_per_sync", r.records_per_sync, 1);
  }
  report.Set("speedup.group_over_per_commit", group_speedup, 2);
  report.Set("speedup.async_over_per_commit", async_speedup, 2);

  // CI gate: with 16 committers sharing flushes, group commit must clear at
  // least 2x the one-sync-per-commit baseline.
  report.Gate("group >= 2x per_commit commits/sec", group_speedup >= 2.0);
  return report.Finish();
}

}  // namespace
}  // namespace mtdb::bench

int main() { return mtdb::bench::Run(); }
