// Tests for the metrics registry and the live load-feedback path.
//
// The concurrency tests here carry the "sanitizer"/"obs" ctest labels: the
// sharded counter, the registry's shared_mutex fast path, and the lock-free
// histogram's Record/Merge/Snapshot are exactly the code TSan must see
// under real thread interleavings.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/cluster_controller.h"
#include "src/common/histogram.h"
#include "src/obs/load_monitor.h"
#include "src/obs/metrics.h"
#include "src/sla/sla.h"

namespace mtdb {
namespace {

using obs::MetricLabels;
using obs::MetricsRegistry;

TEST(ObsMetricsTest, ConcurrentCountersSumExactly) {
  auto& registry = MetricsRegistry::Global();
  obs::Counter* counter =
      registry.GetCounter("test_concurrent_total", {.machine = "m0"});
  counter->Reset();

  constexpr int kThreads = 8;
  constexpr int kIncrements = 20'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([counter] {
      for (int i = 0; i < kIncrements; ++i) obs::Increment(counter);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter->Value(), int64_t{kThreads} * kIncrements);
  EXPECT_EQ(registry.CounterValue("test_concurrent_total", {.machine = "m0"}),
            int64_t{kThreads} * kIncrements);
}

TEST(ObsMetricsTest, ConcurrentResolveAndRecordIsSafe) {
  // Threads race GetCounter (registry insert path) against recording on
  // already-resolved series; the same label tuple must map to one series.
  auto& registry = MetricsRegistry::Global();
  constexpr int kThreads = 8;
  constexpr int kOps = 2'000;
  registry.GetCounter("test_resolve_total", {.machine = "m0"})->Reset();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      for (int i = 0; i < kOps; ++i) {
        MetricLabels labels{
            .machine = std::string("m").append(std::to_string(i % 4))};
        obs::Increment(registry.GetCounter("test_resolve_total", labels));
      }
    });
  }
  for (auto& w : workers) w.join();
  int64_t total = 0;
  for (int m = 0; m < 4; ++m) {
    total += registry.CounterValue(
        "test_resolve_total",
        {.machine = std::string("m").append(std::to_string(m))});
  }
  EXPECT_EQ(total, int64_t{kThreads} * kOps);
  EXPECT_EQ(registry.SumCounter("test_resolve_total"), total);
  // Zero every series counted into, so a repeated run starts from zero.
  // Resetting them up front would register m1-m3 before the race: the
  // threads must insert them.
  for (int m = 0; m < 4; ++m) {
    registry
        .GetCounter("test_resolve_total",
                    {.machine = std::string("m").append(std::to_string(m))})
        ->Reset();
  }
}

TEST(ObsMetricsTest, TextDumpFormatsLabelsAndHistograms) {
  auto& registry = MetricsRegistry::Global();
  MetricLabels labels{.machine = "m1", .operation = "Commit"};
  registry.GetCounter("test_dump_total", labels)->Reset();
  obs::Increment(registry.GetCounter("test_dump_total", labels), 42);
  Histogram* hist = registry.GetHistogram("test_dump_us", {.operation = "Get"});
  hist->Reset();
  hist->Record(100);
  hist->Record(300);

  std::string dump = registry.TextDump();
  EXPECT_NE(
      dump.find("test_dump_total{machine=\"m1\",operation=\"Commit\"} 42"),
      std::string::npos)
      << dump;
  EXPECT_NE(dump.find("test_dump_us{operation=\"Get\"} count=2"),
            std::string::npos)
      << dump;
}

TEST(ObsMetricsTest, DisabledRegistryDropsRecordings) {
  auto& registry = MetricsRegistry::Global();
  obs::Counter* counter = registry.GetCounter("test_disabled_total", {});
  counter->Reset();
  MetricsRegistry::SetEnabled(false);
  obs::Increment(counter);
  MetricsRegistry::SetEnabled(true);
#if defined(MTDB_NO_METRICS)
  EXPECT_EQ(counter->Value(), 0);
#else
  EXPECT_EQ(counter->Value(), 0);
  obs::Increment(counter);
  EXPECT_EQ(counter->Value(), 1);
#endif
}

// Regression: Histogram::Merge(self) used to lock the same mutex twice via
// std::scoped_lock(mu_, other.mu_) — undefined behavior. Self-merge must
// double the distribution in place.
TEST(ObsMetricsTest, HistogramSelfMergeDoublesInPlace) {
  Histogram h;
  h.Record(10);
  h.Record(1000);
  h.Merge(h);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 4);
  EXPECT_DOUBLE_EQ(snap.mean, (10.0 + 1000.0) / 2);
}

// TSan coverage for the histogram: concurrent Record, Merge (including
// self-merge), and Snapshot must be free of races.
TEST(ObsMetricsTest, HistogramConcurrentMergeAndRecord) {
  Histogram a;
  Histogram b;
  std::vector<std::thread> workers;
  workers.emplace_back([&a] {
    for (int i = 0; i < 5'000; ++i) a.Record(i % 1'000);
  });
  workers.emplace_back([&b] {
    for (int i = 0; i < 5'000; ++i) b.Record(i % 1'000);
  });
  // Few merge rounds on purpose: each merge roughly doubles the counts, so
  // the iteration budget must keep count/sum far away from int64 overflow.
  workers.emplace_back([&a, &b] {
    // Merge in both directions while both histograms take recordings.
    for (int i = 0; i < 8; ++i) {
      a.Merge(b);
      b.Merge(a);
    }
  });
  workers.emplace_back([&a] {
    for (int i = 0; i < 8; ++i) {
      a.Merge(a);
      (void)a.Snapshot();
    }
  });
  for (auto& w : workers) w.join();
  EXPECT_GT(a.Snapshot().count, 0);
  EXPECT_GT(b.Snapshot().count, 0);
}

TEST(ObsMetricsTest, ConcurrentRecordingIsExact) {
  // Four recorders share one histogram with no lock: recorder t records
  // t * kPerThread + 1 ... (t + 1) * kPerThread, so the values are
  // 1 ... kTotal, each once.
  constexpr int kThreads = 4;
  constexpr int64_t kPerThread = 50'000;
  constexpr int64_t kTotal = kThreads * kPerThread;
  Histogram histogram;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&histogram, &running, t] {
      for (int64_t i = 1; i <= kPerThread; ++i) {
        histogram.Record(t * kPerThread + i);
      }
      running.fetch_sub(1);
    });
  }
  // Snapshots taken meanwhile are cuts of the recorded values: their count
  // only grows, their percentiles lie between their min and max, and they
  // never report a value no recorder wrote.
  int64_t last_count = 0;
  int snapshots = 0;
  while (running.load() > 0) {
    HistogramSnapshot snap = histogram.Snapshot();
    ++snapshots;
    ASSERT_GE(snap.count, last_count);
    ASSERT_LE(snap.count, kTotal);
    last_count = snap.count;
    if (snap.count == 0) continue;
    ASSERT_GE(snap.min, 1);
    ASSERT_LE(snap.max, kTotal);
    ASSERT_LE(snap.min, snap.p50);
    ASSERT_LE(snap.p50, snap.p99);
    ASSERT_LE(snap.p99, snap.max);
  }
  for (auto& recorder : recorders) recorder.join();
  EXPECT_GT(snapshots, 0);
  HistogramSnapshot done = histogram.Snapshot();
  EXPECT_EQ(done.count, kTotal);
  EXPECT_EQ(histogram.count(), kTotal);
  EXPECT_EQ(done.min, 1);
  EXPECT_EQ(done.max, kTotal);
  // With the count exact, an exact mean means an exact sum.
  EXPECT_DOUBLE_EQ(done.mean, (kTotal + 1) / 2.0);
}

TEST(ObsMetricsTest, ScopedTimerRecordsElapsed) {
  auto& registry = MetricsRegistry::Global();
  Histogram* hist = registry.GetHistogram("test_scoped_us", {});
  int64_t before = hist->Snapshot().count;
  { obs::ScopedTimer timer(hist); }
  EXPECT_EQ(hist->Snapshot().count, before + 1);
}

// End-to-end: a TPC-W-style paced load over the in-proc RPC stack must leave
// non-zero 2PC phase latencies and the controller's commit counter behind,
// and the LoadMonitor's per-tenant throughput estimate must line up with the
// pace we drove.
TEST(ObsMetricsTest, PacedLoadFeedsCountersAndLoadMonitor) {
  auto& registry = MetricsRegistry::Global();
  // The controller's series are unlabeled process totals; the engines'
  // series of the same names carry machine labels.
  int64_t commits_before = registry.CounterValue("mtdb_txn_commit_total", {});
  int64_t prepares_before =
      registry.GetHistogram("mtdb_2pc_prepare_us", {})->count();
  int64_t phase2_before =
      registry.GetHistogram("mtdb_2pc_commit_us", {})->count();

  ClusterController controller{ClusterControllerOptions{}};
  controller.AddMachine();
  controller.AddMachine();
  ASSERT_TRUE(controller.CreateDatabaseOn("shop", {0, 1}).ok());
  ASSERT_TRUE(controller
                  .ExecuteDdl("shop",
                              "CREATE TABLE item (i_id INT PRIMARY KEY, "
                              "i_stock INT)")
                  .ok());
  std::vector<Row> rows;
  for (int64_t i = 1; i <= 10; ++i) {
    rows.push_back({Value(i), Value(int64_t{100})});
  }
  ASSERT_TRUE(controller.BulkLoad("shop", "item", rows).ok());

  // ~20 committed write transactions/second for ~1.5 seconds.
  constexpr int kTxns = 30;
  constexpr auto kPeriod = std::chrono::milliseconds(50);
  auto conn = controller.Connect("shop");
  for (int i = 0; i < kTxns; ++i) {
    auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(conn->Begin().ok());
    ASSERT_TRUE(conn->Execute("UPDATE item SET i_stock = i_stock - 1 "
                              "WHERE i_id = ?",
                              {Value(int64_t{1 + i % 10})})
                    .ok());
    ASSERT_TRUE(conn->Commit().ok());
    std::this_thread::sleep_until(start + kPeriod);
  }

  // The controller's commit counter advanced by exactly the committed count.
  EXPECT_EQ(registry.CounterValue("mtdb_txn_commit_total", {}),
            commits_before + kTxns);
  // Both 2PC phases saw every write transaction and measured real time.
  HistogramSnapshot prepare =
      registry.GetHistogram("mtdb_2pc_prepare_us", {})->Snapshot();
  HistogramSnapshot commit =
      registry.GetHistogram("mtdb_2pc_commit_us", {})->Snapshot();
  EXPECT_GE(prepare.count, prepares_before + kTxns);
  EXPECT_GE(commit.count, phase2_before + kTxns);
  EXPECT_GT(prepare.mean, 0.0);
  EXPECT_GT(commit.mean, 0.0);

  // The LoadMonitor measured the pace we drove: 20 tps nominal, with wide
  // tolerance for scheduler jitter on loaded CI machines.
  double tps = controller.load_monitor()->TpsFor("shop");
  EXPECT_GE(tps, 8.0);
  EXPECT_LE(tps, 40.0);

  // And its requirement estimate is exactly the SLA model run at that
  // throughput — measured load is directly comparable to static profiles.
  ResourceVector estimate = controller.load_monitor()->EstimateFor("shop");
  ResourceVector expected = sla::EstimateRequirement(
      0.0, controller.load_monitor()->TpsFor("shop"));
  EXPECT_NEAR(estimate.cpu, expected.cpu, expected.cpu * 0.5 + 1.0);
  EXPECT_GT(estimate.cpu, sla::ProfileModel{}.cpu_base);
  EXPECT_GT(estimate.memory_mb, 0.0);
}

// A large number of small tenants must cost the registry nothing: with the
// catalog keeping 16 of 300 tenants resident, connecting to and committing
// on every tenant mints no series beyond those the first tenant needed, and
// no label carries a tenant name.
TEST(ObsMetricsTest, TenantChurnMintsNoSeries) {
  auto& registry = MetricsRegistry::Global();
  ClusterControllerOptions options;
  options.catalog.max_resident = 16;
  ClusterController controller{options};
  controller.AddMachine();
  controller.AddMachine();

  constexpr int kTenants = 300;
  std::set<std::string> tenants;
  size_t series_after_first = 0;
  for (int t = 0; t < kTenants; ++t) {
    std::string name = "churn_tenant_" + std::to_string(t);
    tenants.insert(name);
    ASSERT_TRUE(controller.CreateDatabase(name).ok());
    ASSERT_TRUE(controller
                    .ExecuteDdl(name,
                                "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
                    .ok());
    auto conn = controller.Connect(name);
    ASSERT_TRUE(conn->Begin().ok());
    ASSERT_TRUE(conn->Execute("INSERT INTO kv VALUES (?, ?)",
                              {Value(int64_t{1}), Value(int64_t{t})})
                    .ok());
    ASSERT_TRUE(conn->Execute("SELECT v FROM kv WHERE k = ?",
                              {Value(int64_t{1})})
                    .ok());
    ASSERT_TRUE(conn->Commit().ok());
    if (t == 0) series_after_first = registry.Snapshot().size();
  }
  // The churn really evicted tenants, so eviction paths ran too.
  EXPECT_GT(registry.SumCounter("mtdb_catalog_evictions_total"), 0);

  std::vector<obs::SeriesSnapshot> series = registry.Snapshot();
  EXPECT_EQ(series.size(), series_after_first);
  for (const obs::SeriesSnapshot& snap : series) {
    EXPECT_EQ(tenants.count(snap.labels.machine), 0u) << snap.name;
    EXPECT_EQ(tenants.count(snap.labels.operation), 0u) << snap.name;
  }
}

TEST(ObsMetricsTest, LoadMonitorWindowDecaysToZero) {
  obs::LoadMonitor::Options options;
  options.window_us = 100'000;  // 100 ms window
  obs::LoadMonitor monitor(options);
  for (int i = 0; i < 10; ++i) {
    monitor.RecordTxn("db", /*committed=*/true);
  }
  EXPECT_GT(monitor.TpsFor("db"), 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_DOUBLE_EQ(monitor.TpsFor("db"), 0.0);
}

// The monitor bounds itself: a window with no sample inside the horizon is
// dropped by a later RecordTxn, so tenants that went quiet cost nothing.
TEST(ObsMetricsTest, LoadMonitorDropsIdleWindows) {
  obs::LoadMonitor::Options options;
  options.window_us = 50'000;  // 50 ms window
  obs::LoadMonitor monitor(options);
  for (int i = 0; i < 100; ++i) {
    monitor.RecordTxn("tenant" + std::to_string(i), /*committed=*/true);
  }
  EXPECT_EQ(monitor.window_count(), 100u);
  std::this_thread::sleep_for(std::chrono::milliseconds(75));
  monitor.RecordTxn("tenant0", /*committed=*/true);
  EXPECT_EQ(monitor.window_count(), 1u);
}

}  // namespace
}  // namespace mtdb
