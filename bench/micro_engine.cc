// Microbenchmarks (google-benchmark) for the substrate components: lock
// manager, storage engine row operations, SQL parsing/execution, zipfian
// generation, and the serializability checker.
//
// After the benchmarks, main() runs a metrics-overhead gate: engine
// transaction throughput with the metrics registry enabled must stay within
// 5% of throughput with recording disabled, enforced by the exit code (CI
// fails if instrumenting the hot path got expensive). Set
// MTDB_SKIP_METRICS_GATE=1 to skip it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "src/analysis/history.h"
#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/obs/metrics.h"
#include "src/sql/executor.h"
#include "src/sql/parser.h"
#include "src/storage/engine.h"

namespace mtdb {
namespace {

void BM_LockAcquireRelease(benchmark::State& state) {
  LockManager lm;
  uint64_t txn = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.Acquire(txn, "resource", LockMode::kExclusive));
    lm.ReleaseAll(txn);
    ++txn;
  }
}
BENCHMARK(BM_LockAcquireRelease);

void BM_LockHierarchicalRowAccess(benchmark::State& state) {
  LockManager lm;
  uint64_t txn = 1;
  for (auto _ : state) {
    (void)lm.Acquire(txn, "T/db/t", LockMode::kIntentionShared);
    (void)lm.Acquire(txn, "R/db/t/5", LockMode::kShared);
    lm.ReleaseAll(txn);
    ++txn;
  }
}
BENCHMARK(BM_LockHierarchicalRowAccess);

std::unique_ptr<Engine> MakeLoadedEngine(int64_t rows) {
  auto engine = std::make_unique<Engine>("bench");
  (void)engine->CreateDatabase("db");
  (void)engine->CreateTable(
      "db", TableSchema("t",
                        {{"id", ColumnType::kInt64, true},
                         {"payload", ColumnType::kString, false},
                         {"n", ColumnType::kInt64, false}},
                        0));
  std::vector<Row> data;
  for (int64_t i = 0; i < rows; ++i) {
    data.push_back({Value(i), Value("payload_" + std::to_string(i)),
                    Value(i * 2)});
  }
  (void)engine->BulkInsert("db", "t", data);
  return engine;
}

void BM_EnginePointRead(benchmark::State& state) {
  auto engine = MakeLoadedEngine(state.range(0));
  Random rng(1);
  uint64_t txn = 1;
  for (auto _ : state) {
    (void)engine->Begin(txn);
    benchmark::DoNotOptimize(engine->Read(
        txn, "db", "t",
        Value(static_cast<int64_t>(rng.Uniform(state.range(0))))));
    (void)engine->Commit(txn);
    ++txn;
  }
}
BENCHMARK(BM_EnginePointRead)->Arg(1000)->Arg(100000);

void BM_EngineUpdateTxn(benchmark::State& state) {
  auto engine = MakeLoadedEngine(1000);
  Random rng(1);
  uint64_t txn = 1;
  for (auto _ : state) {
    int64_t id = static_cast<int64_t>(rng.Uniform(1000));
    (void)engine->Begin(txn);
    (void)engine->Update(txn, "db", "t", Value(id),
                         {Value(id), Value("updated"), Value(id)});
    (void)engine->Commit(txn);
    ++txn;
  }
}
BENCHMARK(BM_EngineUpdateTxn);

void BM_SqlParseSelect(benchmark::State& state) {
  const std::string sql =
      "SELECT o.oid, i.name, o.n * i.price AS amount FROM orders o "
      "JOIN items i ON o.item_id = i.id WHERE o.total > 100 AND "
      "i.cat IN ('a', 'b') ORDER BY amount DESC LIMIT 10";
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::Parse(sql));
  }
}
BENCHMARK(BM_SqlParseSelect);

void BM_SqlPointSelectEndToEnd(benchmark::State& state) {
  auto engine = MakeLoadedEngine(10000);
  sql::SqlExecutor executor(engine.get());
  Random rng(1);
  uint64_t txn = 1;
  for (auto _ : state) {
    (void)engine->Begin(txn);
    benchmark::DoNotOptimize(executor.ExecuteSql(
        txn, "db", "SELECT payload FROM t WHERE id = ?",
        {Value(static_cast<int64_t>(rng.Uniform(10000)))}));
    (void)engine->Commit(txn);
    ++txn;
  }
}
BENCHMARK(BM_SqlPointSelectEndToEnd);

void BM_SqlAggregateScan(benchmark::State& state) {
  auto engine = MakeLoadedEngine(state.range(0));
  sql::SqlExecutor executor(engine.get());
  uint64_t txn = 1;
  for (auto _ : state) {
    (void)engine->Begin(txn);
    benchmark::DoNotOptimize(executor.ExecuteSql(
        txn, "db", "SELECT COUNT(*), SUM(n), MAX(n) FROM t"));
    (void)engine->Commit(txn);
    ++txn;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SqlAggregateScan)->Arg(1000)->Arg(10000);

void BM_ZipfianDraw(benchmark::State& state) {
  ZipfianGenerator zipf(100000, 0.99, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next());
  }
}
BENCHMARK(BM_ZipfianDraw);

void BM_SerializabilityCheck(benchmark::State& state) {
  // A chain history of N txns across 2 sites.
  std::vector<CommittedTxnRecord> site1, site2;
  for (uint64_t i = 1; i <= static_cast<uint64_t>(state.range(0)); ++i) {
    CommittedTxnRecord t1;
    t1.txn_id = i;
    t1.reads = {{"x", i - 1}};
    t1.writes = {{"x", i}};
    site1.push_back(std::move(t1));
    CommittedTxnRecord t2;
    t2.txn_id = i;
    t2.reads = {{"y", i - 1}};
    t2.writes = {{"y", i}};
    site2.push_back(std::move(t2));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::AuditHistories({site1, site2}));
  }
}
BENCHMARK(BM_SerializabilityCheck)->Arg(100)->Arg(1000);

}  // namespace

// Read-modify-write transactions per second against a loaded engine for
// ~duration_ms. The loop body is the instrumented hot path: txn begin/commit
// counters, lock-wait accounting, buffer-cache touches.
static double MeasureEngineTps(Engine* engine, int64_t duration_ms) {
  Random rng(42);
  static uint64_t txn = 1'000'000;  // away from benchmark txn ids
  Stopwatch watch;
  int64_t ops = 0;
  while (watch.ElapsedMicros() < duration_ms * 1000) {
    int64_t id = static_cast<int64_t>(rng.Uniform(1000));
    (void)engine->Begin(txn);
    (void)engine->Read(txn, "db", "t", Value(id));
    (void)engine->Update(txn, "db", "t", Value(id),
                         {Value(id), Value("gated"), Value(id)});
    (void)engine->Commit(txn);
    ++txn;
    ++ops;
  }
  return static_cast<double>(ops) / watch.ElapsedSeconds();
}

int RunMetricsOverheadGate() {
  if (std::getenv("MTDB_SKIP_METRICS_GATE") != nullptr) {
    std::printf("metrics overhead gate: skipped (MTDB_SKIP_METRICS_GATE)\n");
    return 0;
  }
#if defined(MTDB_NO_METRICS)
  // Recording is compiled out: both variants run identical code and the
  // comparison would only measure machine noise.
  std::printf("metrics overhead gate: skipped (MTDB_NO_METRICS build)\n");
  return 0;
#endif
  const int64_t duration_ms = bench::BenchMs(300);

  auto engine = MakeLoadedEngine(1000);
  (void)MeasureEngineTps(engine.get(), duration_ms);  // warm-up

  // Interleave enabled/disabled trials so drift (thermal, scheduler) hits
  // both variants evenly, and compare the *medians* of 3 runs each: a
  // best-of comparison rewards whichever variant got the single luckiest
  // scheduling window, which is exactly the noise the gate must ignore.
  std::array<double, 3> enabled_trials{};
  std::array<double, 3> disabled_trials{};
  for (int trial = 0; trial < 3; ++trial) {
    obs::MetricsRegistry::SetEnabled(true);
    enabled_trials[trial] = MeasureEngineTps(engine.get(), duration_ms);
    obs::MetricsRegistry::SetEnabled(false);
    disabled_trials[trial] = MeasureEngineTps(engine.get(), duration_ms);
  }
  obs::MetricsRegistry::SetEnabled(true);
  std::sort(enabled_trials.begin(), enabled_trials.end());
  std::sort(disabled_trials.begin(), disabled_trials.end());
  double enabled_tps = enabled_trials[1];
  double disabled_tps = disabled_trials[1];

  double ratio = disabled_tps > 0 ? enabled_tps / disabled_tps : 1.0;
  bench::PrintRow({"metrics overhead gate", "enabled txn/s", "disabled txn/s",
                   "ratio"});
  bench::PrintRow({"median of 3", bench::Fmt(enabled_tps, 0),
                   bench::Fmt(disabled_tps, 0), bench::Fmt(ratio, 3)});
  bench::Report report;
  report.Gate("metrics enabled txn/s >= 0.95x disabled",
              enabled_tps >= 0.95 * disabled_tps);
  return report.Finish();
}

}  // namespace mtdb

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return mtdb::RunMetricsOverheadGate();
}
