// End-to-end integration tests: the full platform stack (system controller
// -> colo -> cluster -> engine) under realistic multi-tenant lifecycles.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <thread>

#include "src/cluster/replica_builder.h"
#include "src/platform/system_controller.h"
#include "src/sla/placement.h"
#include "src/workload/driver.h"

namespace mtdb {
namespace {

TEST(IntegrationTest, TenantLifecycleOnCluster) {
  // Create -> load -> serve -> fail machine -> recover -> keep serving ->
  // verify consistency and accounting, all through public APIs.
  ClusterController cluster;
  MachineOptions machine_options;
  machine_options.engine_options.lock_options.lock_timeout_us = 500'000;
  for (int m = 0; m < 4; ++m) cluster.AddMachine(machine_options);

  workload::TpcwScale scale;
  scale.items = 30;
  scale.customers = 60;
  scale.initial_orders = 20;
  std::vector<std::string> tenants;
  for (int t = 0; t < 3; ++t) {
    std::string name = "tenant" + std::to_string(t);
    ASSERT_TRUE(cluster.CreateDatabase(name, 2).ok());
    ASSERT_TRUE(workload::CreateTpcwSchema(&cluster, name).ok());
    workload::TpcwScale tenant_scale = scale;
    tenant_scale.seed = 50 + t;
    ASSERT_TRUE(workload::LoadTpcwData(&cluster, name, tenant_scale).ok());
    tenants.push_back(name);
  }

  // Phase 1: healthy traffic.
  workload::DriverOptions driver;
  driver.mix = workload::TpcwMix::kShopping;
  driver.sessions = 2;
  driver.duration_ms = 250;
  workload::WorkloadStats healthy =
      workload::RunMultiTenantWorkload(&cluster, tenants, scale, driver);
  EXPECT_GT(healthy.committed, 0);
  EXPECT_EQ(healthy.rejected, 0);

  // Phase 2: machine failure + recovery under traffic.
  cluster.FailMachine(0);
  ReplicaBuilderOptions recovery_options;
  recovery_options.recovery_threads = 2;
  recovery_options.per_row_delay_us = 500;
  ReplicaBuilder recovery(&cluster, recovery_options);
  workload::WorkloadStats during;
  std::thread traffic([&] {
    during =
        workload::RunMultiTenantWorkload(&cluster, tenants, scale, driver);
  });
  auto results = recovery.RecoverAll(2);
  traffic.join();
  for (const auto& result : results) {
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  }
  EXPECT_GT(during.committed, 0);  // service continued throughout

  // Phase 3: everything is again 2-way replicated and consistent.
  for (const std::string& tenant : tenants) {
    std::vector<int> alive;
    for (int id : cluster.ReplicasOf(tenant)) {
      if (!cluster.machine(id)->failed()) alive.push_back(id);
    }
    ASSERT_EQ(alive.size(), 2u) << tenant;
    for (const char* table : {"item", "orders", "customer", "order_line"}) {
      uint64_t fp0 = cluster.machine(alive[0])
                         ->engine()
                         ->GetDatabase(tenant)
                         ->GetTable(table)
                         ->ContentFingerprint();
      uint64_t fp1 = cluster.machine(alive[1])
                         ->engine()
                         ->GetDatabase(tenant)
                         ->GetTable(table)
                         ->ContentFingerprint();
      EXPECT_EQ(fp0, fp1) << tenant << "." << table;
    }
  }

  // Phase 4: post-recovery service works.
  workload::WorkloadStats after =
      workload::RunMultiTenantWorkload(&cluster, tenants, scale, driver);
  EXPECT_GT(after.committed, 0);
}

TEST(IntegrationTest, SlaPlacementDrivesRealCluster) {
  // Use First-Fit output to place real databases on a real cluster and
  // verify the replica sets match the plan.
  ResourceVector capacity(200, 4096, 1300, 400);
  sla::FirstFitPlacer placer(capacity);
  std::vector<sla::DatabaseDemand> demands;
  for (int d = 0; d < 6; ++d) {
    sla::DatabaseDemand demand;
    demand.name = "db" + std::to_string(d);
    demand.requirement = sla::EstimateRequirement(300, 2.0);
    demand.replicas = 2;
    demands.push_back(demand);
    ASSERT_TRUE(placer.AddDatabase(demand).ok());
  }
  ASSERT_TRUE(
      sla::ValidatePlacement(placer.placement(), demands, capacity).ok());

  ClusterController cluster;
  for (int m = 0; m < placer.machines_used(); ++m) cluster.AddMachine();
  for (const auto& [name, machines] : placer.placement().assignment) {
    ASSERT_TRUE(cluster.CreateDatabaseOn(name, machines).ok());
    ASSERT_TRUE(
        cluster.ExecuteDdl(name, "CREATE TABLE t (id INT PRIMARY KEY)").ok());
    EXPECT_EQ(cluster.ReplicasOf(name), machines);
  }
  // Every database accepts traffic.
  for (const auto& [name, machines] : placer.placement().assignment) {
    auto conn = cluster.Connect(name);
    EXPECT_TRUE(conn->Execute("INSERT INTO t VALUES (1)").ok());
    auto read = conn->Execute("SELECT COUNT(*) FROM t");
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->at(0, 0).AsInt(), 1);
  }
}

TEST(IntegrationTest, GeoPlatformEndToEnd) {
  platform::SystemOptions options;
  options.replication_lag_ms = 2;
  platform::SystemController system(options);
  platform::ColoOptions west;
  west.name = "west";
  west.location = {37.4, -122.0};
  west.machines_per_cluster = 2;
  platform::ColoOptions east = west;
  east.name = "east";
  east.location = {40.7, -74.0};
  system.AddColo(west);
  system.AddColo(east);

  ASSERT_TRUE(system.CreateDatabase("app", {37.0, -121.0}, 2).ok());
  for (const char* colo : {"west", "east"}) {
    auto cluster = system.colo(colo)->ClusterFor("app");
    ASSERT_TRUE(cluster.ok());
    ASSERT_TRUE((*cluster)
                    ->ExecuteDdl("app",
                                 "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
                    .ok());
  }

  // 30 transactions through the platform connection.
  auto conn = system.Connect("app", {37.0, -121.0});
  ASSERT_TRUE(conn.ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE((*conn)
                    ->Execute("INSERT INTO kv VALUES (?, ?)",
                              {Value(int64_t{i}), Value(int64_t{i * i})})
                    .ok());
  }
  system.DrainReplication();
  EXPECT_EQ(system.shipped_transactions(), 30);

  // Both colos agree on the data.
  for (const char* colo : {"west", "east"}) {
    auto c = system.colo(colo)->Connect("app");
    ASSERT_TRUE(c.ok());
    auto r = (*c)->Execute("SELECT COUNT(*), SUM(v) FROM kv");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->at(0, 0).AsInt(), 30) << colo;
  }

  // Disaster + failover + continued service, end to end.
  system.colo("west")->Fail();
  ASSERT_TRUE(system.FailoverDatabase("app").ok());
  auto dr_conn = system.Connect("app", {37.0, -121.0});
  ASSERT_TRUE(dr_conn.ok());
  EXPECT_TRUE((*dr_conn)
                  ->Execute("INSERT INTO kv VALUES (1000, 0)")
                  .ok());
}

TEST(IntegrationTest, WalBackedMachineSurvivesPowerCycle) {
  // A cluster machine with a WAL loses its memory on Fail(); a fresh engine
  // recovered from the log serves the same data.
  std::string wal_path = std::filesystem::temp_directory_path() /
                         "mtdb_integration_wal.log";
  std::filesystem::remove(wal_path);
  uint64_t fingerprint = 0;
  {
    EngineOptions options;
    options.wal_path = wal_path;
    Engine engine("durable", options);
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable(
                          "db", TableSchema("kv",
                                            {{"k", ColumnType::kInt64, true},
                                             {"v", ColumnType::kInt64, false}},
                                            0))
                    .ok());
    for (uint64_t txn = 1; txn <= 20; ++txn) {
      ASSERT_TRUE(engine.Begin(txn).ok());
      ASSERT_TRUE(engine
                      .Insert(txn, "db", "kv",
                              {Value(static_cast<int64_t>(txn)),
                               Value(static_cast<int64_t>(txn * 7))})
                      .ok());
      ASSERT_TRUE(engine.Commit(txn).ok());
    }
    fingerprint =
        engine.GetDatabase("db")->GetTable("kv")->ContentFingerprint();
  }  // power cycle
  Engine recovered("durable2");
  ASSERT_TRUE(WriteAheadLog::Recover(wal_path, &recovered).ok());
  EXPECT_EQ(recovered.GetDatabase("db")->GetTable("kv")->ContentFingerprint(),
            fingerprint);
  std::filesystem::remove(wal_path);
}

}  // namespace
}  // namespace mtdb
