// Scenario: failure management end to end (Section 3). Tenants serve live
// traffic while a machine dies; the cluster controller keeps serving from
// the survivors, the replica builder re-replicates the lost databases with
// the table-granularity copy tool, and writes that race the copy window are
// proactively rejected — exactly the accounting the SLA model charges.
// Finishes with a cluster-controller (process pair) failover.
#include <cstdio>
#include <thread>

#include "src/cluster/cluster_controller.h"
#include "src/cluster/replica_builder.h"
#include "src/workload/driver.h"

using namespace mtdb;

int main() {
  ClusterController cluster;
  for (int m = 0; m < 5; ++m) cluster.AddMachine();

  workload::TpcwScale scale;
  scale.items = 40;
  scale.customers = 80;
  scale.initial_orders = 40;
  std::vector<std::string> tenants;
  for (int t = 0; t < 4; ++t) {
    std::string name = "app" + std::to_string(t);
    (void)cluster.CreateDatabase(name, 2);
    (void)workload::CreateTpcwSchema(&cluster, name);
    workload::TpcwScale tenant_scale = scale;
    tenant_scale.seed = 7 + t;
    (void)workload::LoadTpcwData(&cluster, name, tenant_scale);
    tenants.push_back(name);
  }

  // Background traffic for the whole demo.
  workload::WorkloadStats stats;
  std::thread traffic([&] {
    workload::DriverOptions driver;
    driver.mix = workload::TpcwMix::kShopping;
    driver.sessions = 2;
    driver.duration_ms = 1500;
    stats = workload::RunMultiTenantWorkload(&cluster, tenants, scale, driver);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::printf("killing machine m0...\n");
  cluster.FailMachine(0);

  ReplicaBuilderOptions recovery_options;
  recovery_options.recovery_threads = 2;
  recovery_options.granularity = CopyGranularity::kTable;
  recovery_options.per_row_delay_us = 800;
  ReplicaBuilder recovery(&cluster, recovery_options);
  auto results = recovery.RecoverAll(/*target_replicas=*/2);
  for (const auto& result : results) {
    std::printf("recovered %-6s m%d -> m%d in %.2fs: %s\n",
                result.database.c_str(), result.source_machine,
                result.target_machine, result.duration_us / 1e6,
                result.status.ToString().c_str());
  }
  traffic.join();

  std::printf(
      "\ntraffic summary: %lld committed (%.1f tps), %lld aborted, "
      "%lld proactively rejected during copy windows\n",
      static_cast<long long>(stats.committed), stats.Tps(),
      static_cast<long long>(stats.aborted),
      static_cast<long long>(stats.rejected));
  for (const std::string& tenant : tenants) {
    std::printf("  %s: %lld rejected writes, replicas now [",
                tenant.c_str(),
                static_cast<long long>(cluster.rejected_writes(tenant)));
    for (int id : cluster.ReplicasOf(tenant)) std::printf(" m%d", id);
    std::printf(" ]\n");
  }

  // Every run of the demo doubles as a serializability audit.
  // (History recording is off by default for throughput; flip it on in
  // MachineOptions to enable the check. Here we verify replica agreement.)
  for (const std::string& tenant : tenants) {
    std::vector<int> alive;
    for (int id : cluster.ReplicasOf(tenant)) {
      if (!cluster.machine(id)->failed()) alive.push_back(id);
    }
    uint64_t fp = 0;
    bool first = true;
    bool equal = true;
    for (int id : alive) {
      Table* items =
          cluster.machine(id)->engine()->GetDatabase(tenant)->GetTable("item");
      uint64_t f = items->ContentFingerprint();
      if (first) {
        fp = f;
        first = false;
      } else if (f != fp) {
        equal = false;
      }
    }
    std::printf("  %s: %zu alive replicas, contents %s\n", tenant.c_str(),
                alive.size(), equal ? "identical" : "DIVERGED");
  }

  // Finally: the cluster controller itself fails over to its process-pair
  // backup. Old connections die; new ones resume immediately.
  std::printf("\nfailing over the cluster controller to its backup...\n");
  cluster.SimulateControllerFailover();
  auto conn = cluster.Connect(tenants[0]);
  auto count = conn->Execute("SELECT COUNT(*) FROM orders");
  std::printf("post-takeover query on %s: %s\n", tenants[0].c_str(),
              count.ok() ? count->at(0, 0).ToString().c_str()
                         : count.status().ToString().c_str());
  return 0;
}
