// Unit tests for recovery on the replica pipeline and the copy-state
// machinery beyond the end-to-end paths covered in cluster_controller_test.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "src/cluster/cluster_controller.h"
#include "src/cluster/replica_builder.h"
#include "src/net/inproc_transport.h"
#include "tests/wal_replay_check.h"

namespace mtdb {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    controller_ = std::make_unique<ClusterController>();
    for (int m = 0; m < 5; ++m) controller_->AddMachine();
  }

  void MakeDb(const std::string& name, int tables = 2, int rows = 5) {
    ASSERT_TRUE(controller_->CreateDatabase(name, 2).ok());
    for (int t = 0; t < tables; ++t) {
      std::string table = std::string("t").append(std::to_string(t));
      ASSERT_TRUE(controller_
                      ->ExecuteDdl(name, "CREATE TABLE " + table +
                                             " (id INT PRIMARY KEY, v INT)")
                      .ok());
      std::vector<Row> data;
      for (int64_t r = 0; r < rows; ++r) {
        data.push_back({Value(r), Value(r * 10)});
      }
      ASSERT_TRUE(controller_->BulkLoad(name, table, data).ok());
    }
  }

  // Replaces the cluster with three machines, each with a WAL of its own.
  void UseWalMachines(const std::string& tag) {
    controller_ = std::make_unique<ClusterController>();
    for (int m = 0; m < 3; ++m) {
      MachineOptions machine;
      machine.engine_options.wal_path =
          ::testing::TempDir() + "mtdb_recovery_" + tag + "_" +
          std::to_string(static_cast<long long>(getpid())) + "_" +
          std::to_string(m) + ".wal";
      std::remove(machine.engine_options.wal_path.c_str());
      wal_paths_.push_back(machine.engine_options.wal_path);
      controller_->AddMachine(machine);
    }
  }

  // Fails one replica of a 50-row, two-table tenant on WAL machines,
  // recovers it with `granularity` and returns the new replica's machine.
  int RecoverOntoWalMachine(CopyGranularity granularity) {
    UseWalMachines(granularity == CopyGranularity::kTable ? "table" : "db");
    MakeDb("db", /*tables=*/2, /*rows=*/50);
    controller_->FailMachine(controller_->ReplicasOf("db")[0]);
    ReplicaBuilderOptions options;
    options.granularity = granularity;
    ReplicaBuilder recovery(controller_.get(), options);
    auto results = recovery.RecoverAll(2);
    EXPECT_EQ(results.size(), 1u);
    if (results.size() != 1 || !results[0].status.ok()) return -1;
    return results[0].target_machine;
  }

  void TearDown() override {
    controller_.reset();
    for (const std::string& path : wal_paths_) std::remove(path.c_str());
  }

  std::unique_ptr<ClusterController> controller_;
  std::vector<std::string> wal_paths_;
};

TEST_F(RecoveryTest, RecoverAllIsNoopWhenHealthy) {
  MakeDb("db");
  ReplicaBuilder recovery(controller_.get(), ReplicaBuilderOptions{});
  auto results = recovery.RecoverAll(2);
  EXPECT_TRUE(results.empty());
}

TEST_F(RecoveryTest, MultipleDatabasesRecoverInParallel) {
  for (int d = 0; d < 4; ++d) MakeDb("db" + std::to_string(d));
  controller_->FailMachine(0);
  int affected = 0;
  for (int d = 0; d < 4; ++d) {
    for (int id : controller_->ReplicasOf("db" + std::to_string(d))) {
      if (id == 0) ++affected;
    }
  }
  ReplicaBuilderOptions options;
  options.recovery_threads = 3;
  ReplicaBuilder recovery(controller_.get(), options);
  auto results = recovery.RecoverAll(2);
  EXPECT_EQ(static_cast<int>(results.size()), affected);
  for (const auto& result : results) {
    EXPECT_TRUE(result.status.ok()) << result.database << ": "
                                    << result.status.ToString();
    EXPECT_NE(result.target_machine, 0);
  }
  // Every database again has 2 alive replicas with matching content.
  for (int d = 0; d < 4; ++d) {
    std::string name = "db" + std::to_string(d);
    std::vector<int> alive;
    for (int id : controller_->ReplicasOf(name)) {
      if (!controller_->machine(id)->failed()) alive.push_back(id);
    }
    ASSERT_EQ(alive.size(), 2u) << name;
  }
}

TEST_F(RecoveryTest, AllTablesCopied) {
  MakeDb("db", /*tables=*/4, /*rows=*/7);
  std::vector<int> replicas = controller_->ReplicasOf("db");
  controller_->FailMachine(replicas[0]);
  ReplicaBuilder recovery(controller_.get(), ReplicaBuilderOptions{});
  auto results = recovery.RecoverAll(2);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok());
  Database* copy = controller_->machine(results[0].target_machine)
                       ->engine()
                       ->GetDatabase("db");
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->table_count(), 4u);
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(
        copy->GetTable(std::string("t").append(std::to_string(t)))->row_count(),
        7u);
  }
}

TEST_F(RecoveryTest, NoAliveReplicaMeansDataLoss) {
  MakeDb("db");
  for (int id : controller_->ReplicasOf("db")) controller_->FailMachine(id);
  ReplicaBuilder recovery(controller_.get(), ReplicaBuilderOptions{});
  // RecoverAll skips databases with zero alive replicas (nothing to copy
  // from); explicit recovery reports the loss.
  EXPECT_TRUE(recovery.RecoverAll(2).empty());
  auto result = recovery.RecoverDatabase("db", 4);
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
}

TEST_F(RecoveryTest, TargetExhaustionSurfaces) {
  // 3-machine cluster fully occupied: no target for a new replica.
  auto small = std::make_unique<ClusterController>();
  for (int m = 0; m < 2; ++m) small->AddMachine();
  ASSERT_TRUE(small->CreateDatabase("db", 2).ok());
  ASSERT_TRUE(
      small->ExecuteDdl("db", "CREATE TABLE t (id INT PRIMARY KEY)").ok());
  small->FailMachine(small->ReplicasOf("db")[0]);
  ReplicaBuilder recovery(small.get(), ReplicaBuilderOptions{});
  auto results = recovery.RecoverAll(2);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kResourceExhausted);
}

TEST_F(RecoveryTest, CopyStateLifecycleGuards) {
  MakeDb("db");
  EXPECT_EQ(controller_->SetCopyInProgress("db", "t0").code(),
            StatusCode::kFailedPrecondition);  // no copy active
  EXPECT_EQ(controller_->CompleteCopy("db").code(),
            StatusCode::kFailedPrecondition);
  int target = 4;
  ASSERT_TRUE(controller_->BeginCopy("db", target).ok());
  EXPECT_EQ(controller_->BeginCopy("db", target).code(),
            StatusCode::kFailedPrecondition);  // already active
  ASSERT_TRUE(controller_->AbandonCopy("db").ok());
  // Target already hosting a replica is rejected.
  int existing = controller_->ReplicasOf("db")[0];
  EXPECT_EQ(controller_->BeginCopy("db", existing).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RecoveryTest, RejectionCountersArePerDatabase) {
  MakeDb("db_a");
  MakeDb("db_b");
  ASSERT_TRUE(controller_->BeginCopy("db_a", 4).ok());
  ASSERT_TRUE(controller_->SetCopyInProgress("db_a", "t0").ok());
  auto conn_a = controller_->Connect("db_a");
  auto conn_b = controller_->Connect("db_b");
  EXPECT_FALSE(conn_a->Execute("UPDATE t0 SET v = 1 WHERE id = 1").ok());
  EXPECT_FALSE(conn_a->Execute("UPDATE t0 SET v = 1 WHERE id = 2").ok());
  // Another table of the same database is unaffected.
  EXPECT_TRUE(conn_a->Execute("UPDATE t1 SET v = 1 WHERE id = 1").ok());
  // Another database is unaffected.
  EXPECT_TRUE(conn_b->Execute("UPDATE t0 SET v = 1 WHERE id = 1").ok());
  EXPECT_EQ(controller_->rejected_writes("db_a"), 2);
  EXPECT_EQ(controller_->rejected_writes("db_b"), 0);
  EXPECT_EQ(controller_->total_rejected_writes(), 2);
}

TEST_F(RecoveryTest, DatabaseGranularityRejectsEveryTable) {
  MakeDb("db");
  ASSERT_TRUE(controller_->BeginCopy("db", 4).ok());
  ASSERT_TRUE(controller_->SetCopyInProgress("db", "*").ok());
  auto conn = controller_->Connect("db");
  EXPECT_FALSE(conn->Execute("UPDATE t0 SET v = 1 WHERE id = 1").ok());
  EXPECT_FALSE(conn->Execute("UPDATE t1 SET v = 1 WHERE id = 1").ok());
  // Reads still flow.
  EXPECT_TRUE(conn->Execute("SELECT COUNT(*) FROM t0").ok());
}

TEST_F(RecoveryTest, RecoveredReplicaServesReads) {
  MakeDb("db2");
  std::vector<int> replicas = controller_->ReplicasOf("db2");
  controller_->FailMachine(replicas[0]);
  ReplicaBuilder recovery(controller_.get(), ReplicaBuilderOptions{});
  auto results = recovery.RecoverAll(2);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok());
  // Option-1 reads may now be routed to the new replica; a full query works.
  auto conn = controller_->Connect("db2");
  auto read = conn->Execute("SELECT SUM(v) FROM t0");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->at(0, 0).AsInt(), 100);  // 0+10+20+30+40
}

TEST_F(RecoveryTest, EmptyTenantRecovers) {
  ASSERT_TRUE(controller_->CreateDatabaseOn("empty", {0, 1}).ok());
  controller_->FailMachine(0);
  ReplicaBuilder recovery(controller_.get());
  auto results = recovery.RecoverAll(2);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  // The copy created the database on the target although there was no
  // table to copy, so the tenant's first DDL and writes reach both replicas.
  ASSERT_TRUE(controller_
                  ->ExecuteDdl("empty",
                               "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
                  .ok());
  auto conn = controller_->Connect("empty");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(conn->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                              ", " + std::to_string(i * 10) + ")")
                    .ok());
  }
  for (int id : controller_->ReplicasOf("empty")) {
    if (controller_->machine(id)->failed()) continue;
    Database* db = controller_->machine(id)->engine()->GetDatabase("empty");
    ASSERT_NE(db, nullptr) << "machine " << id;
    EXPECT_EQ(db->GetTable("t")->row_count(), 4u) << "machine " << id;
  }
}

TEST_F(RecoveryTest, FailedCopyLeavesTargetReusable) {
  // 3 machines, a 2-table tenant on {0,1}, and a short lock timeout.
  MachineOptions machine;
  machine.engine_options.lock_options.lock_timeout_us = 100'000;
  auto cluster = std::make_unique<ClusterController>();
  for (int m = 0; m < 3; ++m) cluster->AddMachine(machine);
  ASSERT_TRUE(cluster->CreateDatabaseOn("db", {0, 1}).ok());
  for (const char* table : {"t0", "t1"}) {
    ASSERT_TRUE(cluster
                    ->ExecuteDdl("db", std::string("CREATE TABLE ") + table +
                                           " (id INT PRIMARY KEY, v INT)")
                    .ok());
    std::vector<Row> rows;
    for (int64_t r = 0; r < 5; ++r) rows.push_back({Value(r), Value(r)});
    ASSERT_TRUE(cluster->BulkLoad("db", table, rows).ok());
  }
  cluster->FailMachine(0);

  // An open transaction that wrote t1 makes t1's dump time out after t0 is
  // already installed on machine 2 and receiving writes. The writer commits
  // from its own thread ~0.5 s later, while the abort drains it.
  auto writer = cluster->Connect("db");
  ASSERT_TRUE(writer->Begin().ok());
  ASSERT_TRUE(writer->Execute("UPDATE t1 SET v = 70 WHERE id = 1").ok());
  std::thread committer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    EXPECT_TRUE(writer->Commit().ok());
  });
  ReplicaBuilder recovery(cluster.get());
  auto failed = recovery.RecoverAll(2);
  committer.join();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_FALSE(failed[0].status.ok());
  EXPECT_EQ(cluster->ReplicasOf("db"), (std::vector<int>{0, 1}));

  // The abort dropped the partial copy, so machine 2 is a target again.
  auto retried = recovery.RecoverAll(2);
  ASSERT_EQ(retried.size(), 1u);
  ASSERT_TRUE(retried[0].status.ok()) << retried[0].status.ToString();
  EXPECT_EQ(retried[0].target_machine, 2);
  for (const char* table : {"t0", "t1"}) {
    Table* a = cluster->machine(1)->engine()->GetDatabase("db")->GetTable(
        table);
    Table* b = cluster->machine(2)->engine()->GetDatabase("db")->GetTable(
        table);
    EXPECT_EQ(a->row_count(), 5u) << table;
    EXPECT_EQ(a->ContentFingerprint(), b->ContentFingerprint()) << table;
  }
  EXPECT_EQ(cluster->machine(2)
                ->engine()
                ->GetDatabase("db")
                ->GetTable("t1")
                ->Get(Value(int64_t{1}))
                ->values[1]
                .AsInt(),
            70);
}

TEST_F(RecoveryTest, TableCopyReplaysFromTheTargetLog) {
  int target = RecoverOntoWalMachine(CopyGranularity::kTable);
  ASSERT_GE(target, 0);
  Engine* copy = controller_->machine(target)->engine().get();
  EXPECT_EQ(copy->GetDatabase("db")->GetTable("t1")->row_count(), 50u);
  ExpectLogReplaysEngine(copy);
}

TEST_F(RecoveryTest, DatabaseCopyReplaysFromTheTargetLog) {
  int target = RecoverOntoWalMachine(CopyGranularity::kDatabase);
  ASSERT_GE(target, 0);
  Engine* copy = controller_->machine(target)->engine().get();
  EXPECT_EQ(copy->GetDatabase("db")->GetTable("t1")->row_count(), 50u);
  ExpectLogReplaysEngine(copy);
}

TEST_F(RecoveryTest, ReplacedMachineStartsAnEmptyLog) {
  UseWalMachines("replaced");
  MakeDb("db", /*tables=*/2, /*rows=*/50);
  Machine* machine = controller_->machine(controller_->ReplicasOf("db")[0]);
  std::shared_ptr<Engine> failed = machine->engine();
  machine->Fail();
  machine->Recover();
  EXPECT_FALSE(machine->engine()->HasDatabase("db"));
  // In-flight work may still hold the failed engine; what it writes stays
  // out of the replacement's log.
  ASSERT_TRUE(failed->CreateDatabase("late").ok());
  ExpectLogReplaysEngine(machine->engine().get());
}

TEST_F(RecoveryTest, CopyIntoAMissingDatabaseIsNotFound) {
  // An install replays record by record and tolerates a record whose object
  // is gone, so the database must be checked before anything replays.
  MakeDb("db");
  std::vector<int> replicas = controller_->ReplicasOf("db");
  int outsider = 0;
  while (outsider == replicas[0] || outsider == replicas[1]) ++outsider;
  net::MachineClient* client = controller_->machine_client();
  auto records = client->DumpTable(replicas[0], "db", "t0",
                                   /*dump_txn_id=*/12345,
                                   /*per_row_delay_us=*/0);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_FALSE(records->empty());
  Status installed = client->ApplyRecords(outsider, "db", *records);
  EXPECT_EQ(installed.code(), StatusCode::kNotFound) << installed.ToString();
  EXPECT_FALSE(controller_->machine(outsider)->engine()->HasDatabase("db"));
}

TEST_F(RecoveryTest, TargetReplacedBeforeInstallFailsTheBuild) {
  // The target is replaced (an empty engine) after the build created the
  // database on it and before the first install arrives: the build fails
  // instead of completing with an empty replica.
  MakeDb("db");
  std::vector<int> replicas = controller_->ReplicasOf("db");
  controller_->FailMachine(replicas[0]);
  net::InProcTransport* transport = controller_->inproc_transport();
  std::atomic<bool> replaced{false};
  ClusterController* cluster = controller_.get();
  transport->SetFaultHook(
      [cluster, &replaced](int machine_id, const net::RpcRequest& request) {
        if (request.type == net::RpcType::kApplyRecords &&
            !replaced.exchange(true)) {
          cluster->machine(machine_id)->Recover();
        }
        return net::InProcTransport::Fault::kDeliver;
      });
  ReplicaBuilder recovery(controller_.get(), ReplicaBuilderOptions{});
  auto failed = recovery.RecoverAll(2);
  transport->SetFaultHook(nullptr);
  ASSERT_TRUE(replaced.load());
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_FALSE(failed[0].status.ok());
  EXPECT_EQ(controller_->ReplicasOf("db"), replicas);

  // The aborted build left the target reusable.
  auto retried = recovery.RecoverAll(2);
  ASSERT_EQ(retried.size(), 1u);
  ASSERT_TRUE(retried[0].status.ok()) << retried[0].status.ToString();
  Database* copy = controller_->machine(retried[0].target_machine)
                       ->engine()
                       ->GetDatabase("db");
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->GetTable("t1")->row_count(), 5u);
}

TEST_F(RecoveryTest, QuotaFollowsRecoveredReplica) {
  MakeDb("db");
  qos::QuotaSpec spec;
  spec.rate_tps = 50;
  spec.burst = 5;
  spec.weight = 3;
  ASSERT_TRUE(controller_->SetDatabaseQuota("db", spec).ok());
  controller_->FailMachine(controller_->ReplicasOf("db")[0]);
  ReplicaBuilder recovery(controller_.get());
  auto results = recovery.RecoverAll(2);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  qos::QuotaSpec pushed =
      controller_->machine(results[0].target_machine)->GetQuota("db");
  EXPECT_DOUBLE_EQ(pushed.rate_tps, 50);
  EXPECT_DOUBLE_EQ(pushed.burst, 5);
  EXPECT_EQ(pushed.weight, 3);
}

}  // namespace
}  // namespace mtdb
