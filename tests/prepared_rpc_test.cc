// End-to-end tests for prepared statements over the RPC path: Connection ↔
// ClusterController ↔ net::MachineClient ↔ net::MachineService ↔ Engine.
//
// A PreparedStatement is a controller-side registry entry holding routing
// facts; executing it sends the same kExecute SQL text as Connection::Execute
// and the machines plan it through their plan cache. These tests drive reads
// with replica retry, write fan-out, DDL-driven re-planning, dropped tables,
// and machine failure and recovery between executions.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/cluster_controller.h"
#include "src/cluster/replica_builder.h"
#include "src/net/machine_service.h"
#include "src/obs/metrics.h"
#include "src/sql/executor.h"

namespace mtdb {
namespace {

MachineOptions FastMachine() {
  MachineOptions options;
  options.engine_options.lock_options.lock_timeout_us = 1'000'000;
  return options;
}

class PreparedRpcTest : public ::testing::Test {
 protected:
  void Build(ClusterControllerOptions options = {}, int machines = 3) {
    controller_ = std::make_unique<ClusterController>(options);
    for (int i = 0; i < machines; ++i) {
      controller_->AddMachine(FastMachine());
    }
    ASSERT_TRUE(controller_->CreateDatabase("shop", 2).ok());
    ASSERT_TRUE(controller_
                    ->ExecuteDdl("shop",
                                 "CREATE TABLE item (i_id INT PRIMARY KEY, "
                                 "i_title VARCHAR(40), i_stock INT)")
                    .ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 20; ++i) {
      rows.push_back(
          {Value(i), Value("title-" + std::to_string(i)), Value(int64_t{50})});
    }
    ASSERT_TRUE(controller_->BulkLoad("shop", "item", rows).ok());
  }

  std::unique_ptr<ClusterController> controller_;
};

TEST_F(PreparedRpcTest, AutocommitPreparedRead) {
  Build();
  auto conn = controller_->Connect("shop");
  auto stmt = conn->Prepare("SELECT i_title FROM item WHERE i_id = ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  for (int64_t id : {3, 7, 11}) {
    auto result = conn->ExecutePrepared(*stmt, {Value(id)});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->rows.size(), 1u);
    EXPECT_EQ(result->at(0, 0).AsString(), "title-" + std::to_string(id));
  }
}

TEST_F(PreparedRpcTest, PreparedWriteReachesAllReplicas) {
  Build();
  auto conn = controller_->Connect("shop");
  auto stmt =
      conn->Prepare("UPDATE item SET i_stock = i_stock - ? WHERE i_id = ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto result =
      conn->ExecutePrepared(*stmt, {Value(int64_t{8}), Value(int64_t{5})});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->affected_rows, 1);
  // Every replica applied the write (write-all).
  for (int id : controller_->ReplicasOf("shop")) {
    auto engine = controller_->machine(id)->engine();
    uint64_t txn = 900'000 + static_cast<uint64_t>(id);
    ASSERT_TRUE(engine->Begin(txn).ok());
    sql::SqlExecutor executor(engine.get());
    auto rows = executor.ExecuteSql(
        txn, "shop", "SELECT i_stock FROM item WHERE i_id = 5", {});
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->at(0, 0).AsInt(), 42);
    ASSERT_TRUE(engine->Commit(txn).ok());
  }
}

TEST_F(PreparedRpcTest, PreparedStatementsInsideExplicitTransaction) {
  Build();
  auto conn = controller_->Connect("shop");
  auto read = conn->Prepare("SELECT i_stock FROM item WHERE i_id = ?");
  auto write =
      conn->Prepare("UPDATE item SET i_stock = ? WHERE i_id = ?");
  ASSERT_TRUE(read.ok() && write.ok());

  ASSERT_TRUE(conn->Begin().ok());
  auto before = conn->ExecutePrepared(*read, {Value(int64_t{2})});
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  int64_t stock = before->at(0, 0).AsInt();
  ASSERT_TRUE(conn->ExecutePrepared(*write, {Value(stock - 1),
                                             Value(int64_t{2})})
                  .ok());
  auto after = conn->ExecutePrepared(*read, {Value(int64_t{2})});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->at(0, 0).AsInt(), stock - 1);
  ASSERT_TRUE(conn->Commit().ok());
}

TEST_F(PreparedRpcTest, PreparedAndUnpreparedInterleave) {
  Build();
  auto conn = controller_->Connect("shop");
  auto stmt = conn->Prepare("SELECT i_stock FROM item WHERE i_id = ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(
      conn->Execute("UPDATE item SET i_stock = 9 WHERE i_id = 1").ok());
  auto result = conn->ExecutePrepared(*stmt, {Value(int64_t{1})});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->at(0, 0).AsInt(), 9);
}

TEST_F(PreparedRpcTest, RegistrySharesStatementsAcrossConnections) {
  Build();
  auto conn1 = controller_->Connect("shop");
  auto conn2 = controller_->Connect("shop");
  const std::string sql = "SELECT i_title FROM item WHERE i_id = ?";
  auto stmt1 = conn1->Prepare(sql);
  auto stmt2 = conn2->Prepare(sql);
  ASSERT_TRUE(stmt1.ok() && stmt2.ok());
  // Same (db, sql) → same registry entry, so routing facts are shared.
  EXPECT_EQ(stmt1->get(), stmt2->get());
}

TEST_F(PreparedRpcTest, PrepareRejectsDdlAndExplain) {
  Build();
  auto conn = controller_->Connect("shop");
  EXPECT_EQ(conn->Prepare("CREATE TABLE t2 (a INT PRIMARY KEY)")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(conn->Prepare("EXPLAIN SELECT * FROM item").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PreparedRpcTest, ExecutePreparedRejectsWrongDatabase) {
  Build();
  ASSERT_TRUE(controller_->CreateDatabase("other", 2).ok());
  ASSERT_TRUE(
      controller_
          ->ExecuteDdl("other", "CREATE TABLE t (a INT PRIMARY KEY)")
          .ok());
  auto shop_conn = controller_->Connect("shop");
  auto other_conn = controller_->Connect("other");
  auto stmt = shop_conn->Prepare("SELECT i_title FROM item WHERE i_id = ?");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(
      other_conn->ExecutePrepared(*stmt, {Value(int64_t{1})}).status().code(),
      StatusCode::kInvalidArgument);
}

TEST_F(PreparedRpcTest, CreateIndexRePlansPreparedStatement) {
  Build();
  auto conn = controller_->Connect("shop");
  auto stmt = conn->Prepare("SELECT i_id FROM item WHERE i_title = ?");
  ASSERT_TRUE(stmt.ok());
  auto before = conn->ExecutePrepared(*stmt, {Value("title-4")});
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->rows.size(), 1u);

  // DDL bumps every replica's schema version; the machine-side plan cache
  // re-plans on next execution, now through the index.
  ASSERT_TRUE(
      controller_->ExecuteDdl("shop",
                              "CREATE INDEX idx_title ON item (i_title)")
          .ok());
  auto after = conn->ExecutePrepared(*stmt, {Value("title-4")});
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->rows.size(), 1u);
  EXPECT_EQ(after->at(0, 0).AsInt(), 4);
}

TEST_F(PreparedRpcTest, DropTableSurfacesNotFoundOverRpc) {
  Build();
  auto conn = controller_->Connect("shop");
  auto stmt = conn->Prepare("SELECT i_title FROM item WHERE i_id = ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(conn->ExecutePrepared(*stmt, {Value(int64_t{1})}).ok());
  ASSERT_TRUE(controller_->ExecuteDdl("shop", "DROP TABLE item").ok());
  auto result = conn->ExecutePrepared(*stmt, {Value(int64_t{1})});
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(PreparedRpcTest, PreparedReadSurvivesMachineFailure) {
  Build();
  auto conn = controller_->Connect("shop");
  auto stmt = conn->Prepare("SELECT i_title FROM item WHERE i_id = ?");
  ASSERT_TRUE(stmt.ok());
  // Warm the plan cache on the replica the first read lands on.
  ASSERT_TRUE(conn->ExecutePrepared(*stmt, {Value(int64_t{1})}).ok());
  // Fail every replica but one; the read fails over to the survivor.
  std::vector<int> replicas = controller_->ReplicasOf("shop");
  ASSERT_EQ(replicas.size(), 2u);
  controller_->FailMachine(replicas[0]);
  auto conn2 = controller_->Connect("shop");
  auto result = conn2->ExecutePrepared(*stmt, {Value(int64_t{1})});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->at(0, 0).AsString(), "title-1");
}

TEST_F(PreparedRpcTest, PreparedWriteAfterFailover) {
  Build();
  auto conn = controller_->Connect("shop");
  auto stmt =
      conn->Prepare("UPDATE item SET i_stock = ? WHERE i_id = ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(
      conn->ExecutePrepared(*stmt, {Value(int64_t{7}), Value(int64_t{0})})
          .ok());
  std::vector<int> replicas = controller_->ReplicasOf("shop");
  controller_->FailMachine(replicas[1]);
  auto conn2 = controller_->Connect("shop");
  ASSERT_TRUE(
      conn2->ExecutePrepared(*stmt, {Value(int64_t{3}), Value(int64_t{0})})
          .ok());
  auto read = conn2->Execute("SELECT i_stock FROM item WHERE i_id = 0");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->at(0, 0).AsInt(), 3);
}

TEST_F(PreparedRpcTest, PreparedStatementsSurviveRecoveryOntoSpare) {
  // Three machines, two replicas: the third machine is the spare that
  // recovery copies onto. No machine holds per-statement state, so nothing
  // is re-prepared across the failure or the recovery, and the retired
  // statement-handle RPCs are never issued.
  Build();
  auto conn = controller_->Connect("shop");
  auto read = conn->Prepare("SELECT i_stock FROM item WHERE i_id = ?");
  auto write = conn->Prepare("UPDATE item SET i_stock = ? WHERE i_id = ?");
  ASSERT_TRUE(read.ok() && write.ok());

  // Every current replica's engine holds `expected` for item 6, and a
  // prepared read through the controller returns it.
  uint64_t probe_txn = 920'000;
  auto expect_stock = [&](int64_t expected) {
    for (int id : controller_->ReplicasOf("shop")) {
      auto engine = controller_->machine(id)->engine();
      uint64_t txn = ++probe_txn;
      ASSERT_TRUE(engine->Begin(txn).ok());
      sql::SqlExecutor executor(engine.get());
      auto rows = executor.ExecuteSql(
          txn, "shop", "SELECT i_stock FROM item WHERE i_id = 6", {});
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ(rows->at(0, 0).AsInt(), expected) << "machine " << id;
      ASSERT_TRUE(engine->Commit(txn).ok());
    }
    auto result = conn->ExecutePrepared(*read, {Value(int64_t{6})});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->at(0, 0).AsInt(), expected);
  };

  ASSERT_TRUE(
      conn->ExecutePrepared(*write, {Value(int64_t{11}), Value(int64_t{6})})
          .ok());
  expect_stock(11);

  std::vector<int> replicas = controller_->ReplicasOf("shop");
  ASSERT_EQ(replicas.size(), 2u);
  controller_->FailMachine(replicas[0]);
  ReplicaBuilder recovery(controller_.get(), ReplicaBuilderOptions{});
  auto results = recovery.RecoverAll(2);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  std::vector<int> recovered = controller_->ReplicasOf("shop");
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(std::count(recovered.begin(), recovered.end(), replicas[0]), 0);
  EXPECT_EQ(std::count(recovered.begin(), recovered.end(),
                       results[0].target_machine),
            1);
  expect_stock(11);

  // The same statement objects keep working: the write reaches the spare,
  // and reads see it.
  ASSERT_TRUE(
      conn->ExecutePrepared(*write, {Value(int64_t{12}), Value(int64_t{6})})
          .ok());
  expect_stock(12);

  // Counters only grow, so 0 now means 0 throughout.
  auto& registry = obs::MetricsRegistry::Global();
  EXPECT_EQ(registry.CounterValue("mtdb_rpc_total",
                                  {.operation = "PrepareStatement"}),
            0);
  EXPECT_EQ(registry.CounterValue("mtdb_rpc_total",
                                  {.operation = "ExecutePrepared"}),
            0);
}

TEST_F(PreparedRpcTest, PreparedStatementsFollowAMigratedTenant) {
  // A live migration swaps a replica onto a machine that has never seen the
  // tenant's statements. Nothing is re-prepared: the target plans the text
  // on first use.
  Build();
  auto conn = controller_->Connect("shop");
  auto read = conn->Prepare("SELECT i_stock FROM item WHERE i_id = ?");
  auto write = conn->Prepare("UPDATE item SET i_stock = ? WHERE i_id = ?");
  ASSERT_TRUE(read.ok() && write.ok());
  ASSERT_TRUE(
      conn->ExecutePrepared(*write, {Value(int64_t{21}), Value(int64_t{3})})
          .ok());

  std::vector<int> replicas = controller_->ReplicasOf("shop");
  ASSERT_EQ(replicas.size(), 2u);
  int spare = 3 - replicas[0] - replicas[1];  // machines are 0, 1, 2
  rebalance::MigrationPlan plan;
  plan.database = "shop";
  plan.source_machine = replicas[0];
  plan.target_machine = spare;
  ReplicaBuilder migrator(controller_.get());
  ASSERT_TRUE(migrator.Migrate(plan).ok());
  std::vector<int> moved = controller_->ReplicasOf("shop");
  ASSERT_EQ(std::count(moved.begin(), moved.end(), spare), 1);

  ASSERT_TRUE(
      conn->ExecutePrepared(*write, {Value(int64_t{22}), Value(int64_t{3})})
          .ok());
  auto result = conn->ExecutePrepared(*read, {Value(int64_t{3})});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->at(0, 0).AsInt(), 22);
  Table* table =
      controller_->machine(spare)->engine()->GetDatabase("shop")->GetTable(
          "item");
  ASSERT_NE(table, nullptr);
  auto row = table->Get(Value(int64_t{3}));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->values[2].AsInt(), 22);
}

TEST_F(PreparedRpcTest, RetiredHandleRpcsAreRejected) {
  // A client still speaking the statement-handle protocol gets an error
  // reply, whether the request crosses the wire or reaches the service.
  Build();
  auto channel = controller_->inproc_transport()->OpenChannel(0);
  net::MachineService service(controller_->machine(0));
  for (net::RpcType retired :
       {net::RpcType::kPrepareStatement, net::RpcType::kExecutePrepared}) {
    net::RpcRequest request;
    request.type = retired;
    request.db_name = "shop";
    request.sql = "SELECT i_title FROM item WHERE i_id = ?";
    auto done = std::make_shared<std::promise<net::RpcResponse>>();
    auto reply = done->get_future();
    channel->Call(request, [done](net::RpcResponse response) {
      done->set_value(std::move(response));
    });
    EXPECT_EQ(reply.get().code, StatusCode::kInvalidArgument)
        << net::RpcTypeName(retired);
    StatusCode dispatched = StatusCode::kOk;
    service.Dispatch(request, [&dispatched](net::RpcResponse response) {
      dispatched = response.code;
    });
    EXPECT_EQ(dispatched, StatusCode::kInvalidArgument)
        << net::RpcTypeName(retired);
  }
}

TEST_F(PreparedRpcTest, ConcurrentPreparedReadersAndWriters) {
  Build();
  constexpr int kThreads = 4;
  constexpr int kOps = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      auto conn = controller_->Connect("shop");
      auto read = conn->Prepare("SELECT i_stock FROM item WHERE i_id = ?");
      auto write = conn->Prepare(
          "UPDATE item SET i_stock = i_stock + ? WHERE i_id = ?");
      ASSERT_TRUE(read.ok() && write.ok());
      for (int i = 0; i < kOps; ++i) {
        int64_t id = (t * kOps + i) % 20;
        if (t % 2 == 0) {
          auto r = conn->ExecutePrepared(*read, {Value(id)});
          if (r.ok()) {
            EXPECT_EQ(r->rows.size(), 1u);
          }
        } else {
          // Lock conflicts may abort individual writes; consistency across
          // replicas is what matters.
          (void)conn->ExecutePrepared(*write, {Value(int64_t{1}), Value(id)});
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Replicas stayed consistent under the concurrent prepared write fan-out.
  std::vector<int> replicas = controller_->ReplicasOf("shop");
  std::vector<int64_t> totals;
  for (int id : replicas) {
    auto engine = controller_->machine(id)->engine();
    uint64_t txn = 910'000 + static_cast<uint64_t>(id);
    ASSERT_TRUE(engine->Begin(txn).ok());
    sql::SqlExecutor executor(engine.get());
    auto rows = executor.ExecuteSql(txn, "shop",
                                    "SELECT SUM(i_stock) FROM item", {});
    ASSERT_TRUE(rows.ok());
    totals.push_back(rows->at(0, 0).AsInt());
    ASSERT_TRUE(engine->Commit(txn).ok());
  }
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0], totals[1]);
}

TEST_F(PreparedRpcTest, ExplainWorksOverConnection) {
  Build();
  auto conn = controller_->Connect("shop");
  auto plan = conn->Execute("EXPLAIN SELECT i_title FROM item WHERE i_id = 3");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->columns, std::vector<std::string>{"plan"});
  bool saw_pk_point = false;
  for (const Row& row : plan->rows) {
    if (row.at(0).AsString().find("pk-point") != std::string::npos) {
      saw_pk_point = true;
    }
  }
  EXPECT_TRUE(saw_pk_point);
  // EXPLAIN routes as a read and never mutates: the table is intact.
  auto rows = conn->Execute("SELECT COUNT(*) FROM item");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->at(0, 0).AsInt(), 20);
}

}  // namespace
}  // namespace mtdb
