// Tests for the sharded lazy tenant catalog (src/cluster/catalog/):
// lazy materialization, LRU eviction with pin protection, the low-water
// sweep of both caps, and the eviction-is-invisible reload invariant (a
// reload parses nothing) — plus threaded pin/sweep and prepare/sweep races
// for the TSan job (ctest -L catalog under the tsan preset).
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/catalog/tenant_catalog.h"
#include "src/cluster/cluster_controller.h"
#include "src/common/clock.h"
#include "src/obs/metrics.h"

namespace mtdb {
namespace {

using catalog::CatalogStats;
using catalog::TenantCatalog;
using catalog::TenantRecord;

TenantRecord RecordOn(std::vector<int> replicas) {
  TenantRecord record;
  record.replicas = std::move(replicas);
  return record;
}

// Pins `name` the one way the catalog offers: as a transaction would.
TenantCatalog::TenantRef Pin(TenantCatalog& cat, const std::string& name) {
  bool cutover = false;
  return cat.AcquireForTxn(name, &cutover);
}

TEST(TenantCatalogTest, InstallIsDurableButNotResident) {
  TenantCatalog cat;
  cat.Install("app0", RecordOn({0, 1}));

  // Installing makes the tenant routable but materializes nothing: an idle
  // tenant costs only its durable record.
  EXPECT_TRUE(cat.Contains("app0"));
  EXPECT_EQ(cat.tenant_count(), 1u);
  EXPECT_EQ(cat.resident_count(), 0u);

  std::vector<int> replicas;
  ASSERT_TRUE(cat.With("app0", [&](const TenantRecord& record) {
                    replicas = record.replicas;
                  }).ok());
  EXPECT_EQ(replicas, (std::vector<int>{0, 1}));
}

TEST(TenantCatalogTest, AcquireMaterializesLazily) {
  TenantCatalog cat;
  cat.Install("app0", RecordOn({0}));

  {
    TenantCatalog::TenantRef ref = Pin(cat, "app0");
    ASSERT_TRUE(ref.valid());
    EXPECT_EQ(cat.resident_count(), 1u);
    CatalogStats stats = cat.Stats();
    EXPECT_EQ(stats.pinned, 1);
    // First materialization is not a reload.
    EXPECT_EQ(stats.reloads, 0);
  }
  // Release drops the pin; resident state stays until evicted.
  EXPECT_EQ(cat.Stats().pinned, 0);
  EXPECT_EQ(cat.resident_count(), 1u);
}

TEST(TenantCatalogTest, AcquireUnknownTenantIsInvalid) {
  TenantCatalog cat;
  TenantCatalog::TenantRef ref = Pin(cat, "nope");
  EXPECT_FALSE(ref.valid());
  ref.Release();  // no-op, must not crash
  EXPECT_EQ(cat.Stats().pinned, 0);
}

TEST(TenantCatalogTest, ReserveBlocksRoutingUntilInstall) {
  TenantCatalog cat;
  ASSERT_TRUE(cat.Reserve("app0").ok());
  // Visible to duplicate-create checks, but not routable yet.
  EXPECT_TRUE(cat.Contains("app0"));
  EXPECT_EQ(cat.Reserve("app0").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(cat.With("app0", [](const TenantRecord&) {}).code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(Pin(cat, "app0").valid());

  cat.Install("app0", RecordOn({0}));
  EXPECT_TRUE(cat.With("app0", [](const TenantRecord&) {}).ok());

  // AbortReserve rolls a failed creation all the way back.
  ASSERT_TRUE(cat.Reserve("app1").ok());
  cat.AbortReserve("app1");
  EXPECT_FALSE(cat.Contains("app1"));
  EXPECT_TRUE(cat.Reserve("app1").ok());
}

TEST(TenantCatalogTest, EvictionPrefersOldestAndNotifiesListener) {
  TenantCatalog::Options options;
  options.shards = 1;  // single shard => strict cross-tenant LRU order
  options.max_resident = 64;
  TenantCatalog cat(options);

  for (int i = 0; i < 4; ++i) {
    std::string name = "app" + std::to_string(i);
    cat.Install(name, RecordOn({0}));
    Pin(cat, name).Release();
    // Distinct last_active_us timestamps even on a coarse clock.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(cat.resident_count(), 4u);

  EXPECT_EQ(cat.EvictResidentDownTo(2), 2u);
  EXPECT_EQ(cat.resident_count(), 2u);
  EXPECT_EQ(cat.Stats().evictions, 2);
  // Oldest-first: app2 and app3 stay resident (pinning them reloads
  // nothing), while app0 and app1 went (pinning one is a reload).
  Pin(cat, "app2").Release();
  Pin(cat, "app3").Release();
  EXPECT_EQ(cat.Stats().reloads, 0);
  Pin(cat, "app0").Release();
  Pin(cat, "app1").Release();
  EXPECT_EQ(cat.Stats().reloads, 2);
}

TEST(TenantCatalogTest, PinnedTenantIsNeverEvicted) {
  TenantCatalog cat;
  cat.Install("pinned", RecordOn({0}));
  cat.Install("idle", RecordOn({0}));

  TenantCatalog::TenantRef ref = Pin(cat, "pinned");
  Pin(cat, "idle").Release();
  ASSERT_EQ(cat.resident_count(), 2u);

  // Even an evict-everything sweep must skip the pinned tenant: it has a
  // transaction in flight.
  (void)cat.EvictResidentDownTo(0);
  EXPECT_EQ(cat.resident_count(), 1u);
  CatalogStats stats = cat.Stats();
  EXPECT_EQ(stats.pinned, 1);
  EXPECT_EQ(stats.evictions, 1);

  // Once released it becomes fair game.
  ref.Release();
  (void)cat.EvictResidentDownTo(0);
  EXPECT_EQ(cat.resident_count(), 0u);

  // And the reload path still works: eviction is invisible to correctness.
  TenantCatalog::TenantRef again = Pin(cat, "pinned");
  EXPECT_TRUE(again.valid());
  EXPECT_GE(cat.Stats().reloads, 1);
}

TEST(TenantCatalogTest, AcquirePastCapSweepsIdleTenants) {
  TenantCatalog::Options options;
  options.shards = 1;
  options.max_resident = 8;
  TenantCatalog cat(options);

  for (int i = 0; i < 32; ++i) {
    std::string name = "app" + std::to_string(i);
    cat.Install(name, RecordOn({0}));
    Pin(cat, name).Release();
  }
  // Steady state: the pin path itself keeps residency at or under the cap;
  // no external sweeper needed.
  EXPECT_LE(cat.resident_count(), 8u);
  EXPECT_EQ(cat.tenant_count(), 32u);
  EXPECT_GT(cat.Stats().evictions, 0);
}

TEST(TenantCatalogTest, EraseWhilePinnedKeepsCountsBalanced) {
  TenantCatalog cat;
  cat.Install("app0", RecordOn({0}));
  TenantCatalog::TenantRef ref = Pin(cat, "app0");
  ASSERT_TRUE(cat.Erase("app0").ok());
  EXPECT_FALSE(cat.Contains("app0"));
  // Releasing a ref whose tenant is gone must not crash or underflow.
  ref.Release();
  CatalogStats stats = cat.Stats();
  EXPECT_EQ(stats.tenants, 0);
  EXPECT_EQ(stats.resident, 0);
}

TEST(TenantCatalogTest, ConcurrentAcquireAndSweep) {
  TenantCatalog::Options options;
  options.shards = 4;
  options.max_resident = 8;
  TenantCatalog cat(options);

  constexpr int kTenants = 64;
  for (int i = 0; i < kTenants; ++i) {
    cat.Install("app" + std::to_string(i), RecordOn({0}));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Acquirers: pin random-ish tenants, briefly, from several threads.
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cat, t] {
      for (int i = 0; i < 400; ++i) {
        int id = (i * 31 + t * 17) % kTenants;
        TenantCatalog::TenantRef ref = Pin(cat, "app" + std::to_string(id));
        ASSERT_TRUE(ref.valid());
      }
    });
  }
  // Sweeper: races full evictions against the acquirers.
  threads.emplace_back([&cat, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)cat.EvictResidentDownTo(0);
      std::this_thread::yield();
    }
  });
  for (size_t t = 0; t + 1 < threads.size(); ++t) threads[t].join();
  stop.store(true, std::memory_order_relaxed);
  threads.back().join();

  CatalogStats stats = cat.Stats();
  EXPECT_EQ(stats.pinned, 0);
  EXPECT_EQ(stats.tenants, kTenants);
  // Every tenant still answers after the storm.
  for (int i = 0; i < kTenants; ++i) {
    EXPECT_TRUE(Pin(cat, "app" + std::to_string(i)).valid());
  }
}

TEST(TenantCatalogTest, PreparedCapSweepsToLowWater) {
  ClusterControllerOptions options;
  options.default_replicas = 1;
  options.catalog.shards = 1;  // strict cross-tenant LRU order
  options.catalog.max_prepared = 20;
  ClusterController controller(options);
  controller.AddMachine({});
  auto* cat = controller.tenant_catalog();
  constexpr int kTenants = 21;
  for (int i = 0; i < kTenants; ++i) {
    ASSERT_TRUE(controller.CreateDatabase("app" + std::to_string(i)).ok());
  }
  const std::string text = "SELECT v FROM t WHERE id = ?";
  // app0 is the oldest registration, but a transaction pins it.
  TenantCatalog::TenantRef pinned = Pin(*cat, "app0");
  for (int i = 0; i + 1 < kTenants; ++i) {
    ASSERT_TRUE(
        controller.PrepareStatement("app" + std::to_string(i), text).ok());
    // Distinct last_active_us timestamps even on a coarse clock.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(cat->prepared_count(), 20u);
  ASSERT_EQ(cat->Stats().evictions, 0);

  // The registration that crosses the cap runs one sweep down to 90% of
  // it: the three oldest idle tenants go, the pinned one stays.
  ASSERT_TRUE(controller.PrepareStatement("app20", text).ok());
  EXPECT_EQ(cat->prepared_count(), 18u);
  EXPECT_EQ(cat->Stats().evictions, 3);
  EXPECT_EQ(cat->Stats().prepared_evicted, 3);
  EXPECT_NE(cat->FindPrepared("app0", text), nullptr);
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(cat->FindPrepared("app" + std::to_string(i), text), nullptr)
        << i;
  }
  for (int i = 4; i < kTenants; ++i) {
    EXPECT_NE(cat->FindPrepared("app" + std::to_string(i), text), nullptr)
        << i;
  }
}

// --- Controller-level coverage: the catalog wired into the real stack ---

class ControllerCatalogTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::MetricsRegistry::Global().ResetForTest(); }
};

TEST_F(ControllerCatalogTest, PreparedRegistryEvictsPerTenantLru) {
  ClusterControllerOptions options;
  options.default_replicas = 1;
  options.catalog.max_prepared_per_tenant = 2;
  ClusterController controller(options);
  controller.AddMachine({});
  ASSERT_TRUE(controller.CreateDatabase("app").ok());
  ASSERT_TRUE(
      controller.ExecuteDdl("app", "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
          .ok());

  auto* cat = controller.tenant_catalog();
  ASSERT_TRUE(
      controller.PrepareStatement("app", "SELECT v FROM t WHERE id = ?").ok());
  ASSERT_TRUE(
      controller.PrepareStatement("app", "SELECT id FROM t WHERE v = ?").ok());
  EXPECT_EQ(cat->prepared_count(), 2u);
  EXPECT_EQ(cat->Stats().prepared_evicted, 0);

  // A third distinct text pushes out the tenant's own LRU statement instead
  // of growing without bound.
  ASSERT_TRUE(controller.PrepareStatement("app", "SELECT id, v FROM t").ok());
  EXPECT_EQ(cat->prepared_count(), 2u);
  EXPECT_EQ(cat->Stats().prepared_evicted, 1);
  EXPECT_EQ(cat->FindPrepared("app", "SELECT v FROM t WHERE id = ?"), nullptr);
  EXPECT_NE(cat->FindPrepared("app", "SELECT id, v FROM t"), nullptr);
}

TEST_F(ControllerCatalogTest, EvictionIsInvisibleToQueries) {
  ClusterControllerOptions options;
  options.default_replicas = 1;
  ClusterController controller(options);
  controller.AddMachine({});
  controller.AddMachine({});

  for (int i = 0; i < 4; ++i) {
    std::string db = "app" + std::to_string(i);
    ASSERT_TRUE(controller.CreateDatabase(db).ok());
    ASSERT_TRUE(
        controller.ExecuteDdl(db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .ok());
    ASSERT_TRUE(
        controller.BulkLoad(db, "t", {{Value(int64_t{0}), Value(int64_t{i})}})
            .ok());
  }

  auto read_v = [&](const std::string& db) -> int64_t {
    auto conn = controller.Connect(db);
    auto result = conn->Execute("SELECT v FROM t WHERE id = ?",
                                {Value(int64_t{0})});
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok() || result->rows.size() != 1) return -1;
    return result->at(0, 0).AsInt();
  };

  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(read_v("app" + std::to_string(i)), i);
  }

  // Evict everything, then query again: first use reloads resident state
  // (catalog materialization, prepared re-registration, plan re-cache) with
  // identical results.
  auto* cat = controller.tenant_catalog();
  (void)cat->EvictResidentDownTo(0);
  EXPECT_EQ(cat->resident_count(), 0u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(read_v("app" + std::to_string(i)), i);
  }
  EXPECT_GE(cat->Stats().reloads, 4);
}

TEST_F(ControllerCatalogTest, ReloadedTenantsParseNothing) {
  ClusterControllerOptions options;
  options.default_replicas = 2;
  ClusterController controller(options);
  controller.AddMachine({});
  controller.AddMachine({});
  constexpr int kTenants = 8;
  for (int i = 0; i < kTenants; ++i) {
    std::string db = "app" + std::to_string(i);
    ASSERT_TRUE(controller.CreateDatabase(db).ok());
    ASSERT_TRUE(
        controller.ExecuteDdl(db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .ok());
    ASSERT_TRUE(controller
                    .BulkLoad(db, "t",
                              {{Value(int64_t{0}), Value(int64_t{i})},
                               {Value(int64_t{1}), Value(int64_t{10 + i})}})
                    .ok());
  }
  // The same texts on every tenant; the write runs first and sets what it
  // finds, so both rounds see the same rows.
  const std::vector<std::string> texts = {
      "UPDATE t SET v = ? WHERE id = ?",
      "SELECT v FROM t WHERE id = ?",
      "SELECT id, v FROM t WHERE v >= ? ORDER BY id",
  };
  // One round: each tenant, on a fresh connection, prepares the texts and
  // runs each once; returns every result's rows and affected-row count.
  auto round = [&] {
    std::vector<std::pair<std::vector<Row>, int64_t>> results;
    for (int i = 0; i < kTenants; ++i) {
      auto conn = controller.Connect("app" + std::to_string(i));
      std::vector<std::shared_ptr<PreparedStatement>> stmts;
      for (const std::string& text : texts) {
        auto stmt = conn->Prepare(text);
        EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
        if (!stmt.ok()) return results;
        stmts.push_back(*stmt);
      }
      const std::vector<std::vector<Value>> params = {
          {Value(int64_t{10 + i}), Value(int64_t{1})},
          {Value(int64_t{1})},
          {Value(int64_t{0})}};
      for (size_t s = 0; s < stmts.size(); ++s) {
        auto result = conn->ExecutePrepared(stmts[s], params[s]);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        if (!result.ok()) return results;
        results.emplace_back(result->rows, result->affected_rows);
      }
    }
    return results;
  };
  auto first = round();
  ASSERT_EQ(first.size(), kTenants * texts.size());

  // DDL drops every machine's plans of these tenants, so the second round
  // also misses each plan cache; then every tenant leaves the catalog.
  for (int i = 0; i < kTenants; ++i) {
    ASSERT_TRUE(controller
                    .ExecuteDdl("app" + std::to_string(i),
                                "CREATE INDEX idx_v ON t (v)")
                    .ok());
  }
  auto* cat = controller.tenant_catalog();
  (void)cat->EvictResidentDownTo(0);
  ASSERT_EQ(cat->resident_count(), 0u);

  auto& registry = obs::MetricsRegistry::Global();
  const int64_t parses = registry.SumCounter("mtdb_sql_parse_total");
  const int64_t plan_misses = registry.SumCounter("mtdb_plan_cache_miss_total");
  const int64_t reloads = cat->Stats().reloads;
  auto second = round();
  EXPECT_EQ(second, first);
  // Every registration and every plan came from a shared parse.
  EXPECT_EQ(registry.SumCounter("mtdb_sql_parse_total"), parses);
  EXPECT_GE(registry.SumCounter("mtdb_plan_cache_miss_total") - plan_misses,
            static_cast<int64_t>(kTenants * texts.size()));
  EXPECT_EQ(cat->Stats().reloads - reloads, kTenants);
}

// Threads prepare and run one shared text and a few distinct ones across
// tenants, through both statement paths, while a sweeper evicts every idle
// tenant in a loop: registrations and parses are shared across tenants,
// racing their eviction (ctest -L catalog under TSan).
TEST_F(ControllerCatalogTest, ConcurrentPrepareExecuteAndEvict) {
  ClusterControllerOptions options;
  options.default_replicas = 1;
  ClusterController controller(options);
  controller.AddMachine({});
  controller.AddMachine({});
  constexpr int kTenants = 4;
  for (int i = 0; i < kTenants; ++i) {
    std::string db = "app" + std::to_string(i);
    ASSERT_TRUE(controller.CreateDatabase(db).ok());
    ASSERT_TRUE(
        controller.ExecuteDdl(db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .ok());
    ASSERT_TRUE(
        controller.BulkLoad(db, "t", {{Value(int64_t{0}), Value(int64_t{i})}})
            .ok());
  }

  std::atomic<int> wrong{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int n = 0; n < 40; ++n) {
        const int tenant = (n + t) % kTenants;
        const int64_t k = (n * 7 + t) % 5;
        auto conn = controller.Connect("app" + std::to_string(tenant));
        auto shared = conn->Prepare("SELECT v FROM t WHERE id = ?");
        std::string distinct = "SELECT v + ";
        distinct += std::to_string(k);
        distinct += " FROM t WHERE id = ?";
        auto own = conn->Prepare(distinct);
        if (!shared.ok() || !own.ok()) {
          wrong++;
          continue;
        }
        auto a = conn->ExecutePrepared(*shared, {Value(int64_t{0})});
        auto b = conn->ExecutePrepared(*own, {Value(int64_t{0})});
        auto c = conn->Execute(distinct, {Value(int64_t{0})});
        if (!a.ok() || !b.ok() || !c.ok() || a->rows.size() != 1 ||
            b->rows.size() != 1 || c->rows.size() != 1 ||
            a->at(0, 0).AsInt() != tenant ||
            b->at(0, 0).AsInt() != tenant + k ||
            c->at(0, 0).AsInt() != tenant + k) {
          wrong++;
        }
      }
    });
  }
  auto* cat = controller.tenant_catalog();
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)cat->EvictResidentDownTo(0);
      std::this_thread::yield();
    }
  });
  for (size_t t = 0; t + 1 < threads.size(); ++t) threads[t].join();
  stop.store(true, std::memory_order_relaxed);
  threads.back().join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(cat->Stats().pinned, 0);
}

TEST_F(ControllerCatalogTest, InFlightTransactionPinsTenant) {
  ClusterControllerOptions options;
  options.default_replicas = 1;
  ClusterController controller(options);
  controller.AddMachine({});
  ASSERT_TRUE(controller.CreateDatabase("app").ok());
  ASSERT_TRUE(
      controller.ExecuteDdl("app", "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
          .ok());

  auto* cat = controller.tenant_catalog();
  auto conn = controller.Connect("app");
  ASSERT_TRUE(conn->Begin().ok());
  EXPECT_EQ(cat->Stats().pinned, 1);

  // A sweep during the transaction must leave the tenant resident.
  (void)cat->EvictResidentDownTo(0);
  EXPECT_EQ(cat->resident_count(), 1u);

  ASSERT_TRUE(
      conn->Execute("INSERT INTO t (id, v) VALUES (?, ?)",
                    {Value(int64_t{1}), Value(int64_t{42})})
          .ok());
  ASSERT_TRUE(conn->Commit().ok());
  EXPECT_EQ(cat->Stats().pinned, 0);

  // Now unpinned: the same sweep evicts it, and the data is still there.
  (void)cat->EvictResidentDownTo(0);
  EXPECT_EQ(cat->resident_count(), 0u);
  auto result = conn->Execute("SELECT v FROM t WHERE id = ?",
                              {Value(int64_t{1})});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->at(0, 0).AsInt(), 42);
}

}  // namespace
}  // namespace mtdb
