// End-to-end test of the TCP transport: real mtdbd-style servers (TcpServer
// + MachineService over loopback sockets, ephemeral ports) driven by a
// ClusterController through a TcpTransport. The same TPC-W-style
// read-modify-write the smoke script runs in CI, plus replication and
// failure-surfacing checks.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/cluster_controller.h"
#include "src/cluster/machine.h"
#include "src/net/machine_service.h"
#include "src/net/tcp_transport.h"
#include "src/obs/metrics.h"

namespace mtdb {
namespace {

// One in-process "remote" machine: engine + RPC service + socket server.
struct RemoteMachine {
  RemoteMachine(int id, MachineOptions options)
      : machine(id, std::move(options)), service(&machine), server(&service) {}
  Machine machine;
  net::MachineService service;
  net::TcpServer server;
};

class NetTcpTest : public ::testing::Test {
 protected:
  // `wal_sync_delay_us` >= 0 gives every machine a group-commit WAL whose
  // device sync takes that long.
  void StartCluster(int machines, int64_t wal_sync_delay_us = -1) {
    for (int m = 0; m < machines; ++m) {
      MachineOptions options;
      if (wal_sync_delay_us >= 0) {
        options.engine_options.wal_path =
            ::testing::TempDir() + "mtdb_tcp_" +
            std::to_string(static_cast<long long>(getpid())) + "_" +
            std::to_string(m) + ".wal";
        std::remove(options.engine_options.wal_path.c_str());
        options.engine_options.wal_sync_delay_us = wal_sync_delay_us;
        wal_paths_.push_back(options.engine_options.wal_path);
      }
      remotes_.push_back(std::make_unique<RemoteMachine>(m, options));
      ASSERT_TRUE(remotes_.back()->server.Start(/*port=*/0).ok());
      transport_.AddEndpoint(m, "127.0.0.1", remotes_.back()->server.port());
    }
    ClusterControllerOptions options;
    options.transport = &transport_;
    options.rpc.call_timeout_us = 10'000'000;
    controller_ = std::make_unique<ClusterController>(options);
    for (int m = 0; m < machines; ++m) controller_->AddMachine();
  }

  void TearDown() override {
    // Controller (and its channels) first, then the servers.
    controller_.reset();
    for (auto& remote : remotes_) remote->server.Stop();
    remotes_.clear();
    for (const std::string& path : wal_paths_) std::remove(path.c_str());
  }

  net::TcpTransport transport_;
  std::vector<std::unique_ptr<RemoteMachine>> remotes_;
  std::unique_ptr<ClusterController> controller_;
  std::vector<std::string> wal_paths_;
};

TEST_F(NetTcpTest, TpcwStyleTransactionCommitsOverSockets) {
  StartCluster(2);
  ASSERT_TRUE(controller_->CreateDatabaseOn("shop", {0, 1}).ok());
  ASSERT_TRUE(controller_
                  ->ExecuteDdl("shop",
                               "CREATE TABLE item (i_id INT PRIMARY KEY, "
                               "i_title TEXT, i_stock INT)")
                  .ok());
  std::vector<Row> items;
  for (int64_t i = 1; i <= 50; ++i) {
    items.push_back(
        {Value(i), Value("item-" + std::to_string(i)), Value(int64_t{100})});
  }
  ASSERT_TRUE(controller_->BulkLoad("shop", "item", items).ok());

  // Buy-confirm: read the stock, decrement it, commit — across a real wire.
  auto conn = controller_->Connect("shop");
  ASSERT_TRUE(conn->Begin().ok());
  auto read = conn->Execute("SELECT i_stock FROM item WHERE i_id = ?",
                            {Value(int64_t{7})});
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->rows.size(), 1u);
  ASSERT_EQ(read->rows[0][0], Value(int64_t{100}));
  auto write = conn->Execute(
      "UPDATE item SET i_stock = i_stock - 1 WHERE i_id = ?",
      {Value(int64_t{7})});
  ASSERT_TRUE(write.ok()) << write.status().ToString();
  Status commit = conn->Commit();
  ASSERT_TRUE(commit.ok()) << commit.ToString();
  EXPECT_EQ(controller_->committed_transactions(), 1);

  // The committed write is on *both* remote engines (2PC across sockets),
  // and readable through a fresh autocommit round trip.
  for (auto& remote : remotes_) {
    Database* db = remote->machine.engine()->GetDatabase("shop");
    ASSERT_NE(db, nullptr);
    auto stored = db->GetTable("item")->Get(Value(int64_t{7}));
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored->values[2], Value(int64_t{99}));
  }
  auto check = conn->Execute("SELECT i_stock FROM item WHERE i_id = ?",
                             {Value(int64_t{7})});
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->rows[0][0], Value(int64_t{99}));
}

TEST_F(NetTcpTest, ReplicatedWriteOnWalMachinesIsReadOnTheSameConnection) {
  // Commit() answers before phase 2 ends. Over TCP each machine serves a
  // connection's requests in order and holds it until a COMMIT PREPARED's
  // record is durable, so the connection's next request on that machine
  // runs after the commit applied there.
  StartCluster(2, /*wal_sync_delay_us=*/20'000);
  ASSERT_TRUE(controller_->CreateDatabaseOn("shop", {0, 1}).ok());
  ASSERT_TRUE(controller_
                  ->ExecuteDdl("shop",
                               "CREATE TABLE item (i_id INT PRIMARY KEY, "
                               "i_stock INT)")
                  .ok());
  ASSERT_TRUE(controller_
                  ->BulkLoad("shop", "item",
                             {{Value(int64_t{3}), Value(int64_t{100})}})
                  .ok());
  auto conn = controller_->Connect("shop");
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Execute("UPDATE item SET i_stock = 55 WHERE i_id = 3")
                  .ok());
  Status commit = conn->Commit();
  ASSERT_TRUE(commit.ok()) << commit.ToString();
  // A snapshot read takes no locks: it sees the write only if the commit
  // applied before it on the machine it reads from.
  ASSERT_TRUE(conn->Begin(/*read_only=*/true).ok());
  auto snapshot = conn->Execute("SELECT i_stock FROM item WHERE i_id = 3");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_EQ(snapshot->rows.size(), 1u);
  EXPECT_EQ(snapshot->rows[0][0], Value(int64_t{55}));
  ASSERT_TRUE(conn->Commit().ok());
  auto locking = conn->Execute("SELECT i_stock FROM item WHERE i_id = 3");
  ASSERT_TRUE(locking.ok()) << locking.status().ToString();
  EXPECT_EQ(locking->rows[0][0], Value(int64_t{55}));
  EXPECT_EQ(controller_->committed_transactions(), 3);
}

TEST_F(NetTcpTest, ReadOnlyTransactionTakesItsSnapshotFromTheFirstRead) {
  // Over a real wire, too, the first read carries the begin: the snapshot
  // timestamp comes back in the read's reply and no kBegin is sent.
  StartCluster(2);
  ASSERT_TRUE(controller_->CreateDatabaseOn("shop", {0, 1}).ok());
  ASSERT_TRUE(controller_
                  ->ExecuteDdl("shop",
                               "CREATE TABLE item (i_id INT PRIMARY KEY, "
                               "i_stock INT)")
                  .ok());
  ASSERT_TRUE(controller_
                  ->BulkLoad("shop", "item",
                             {{Value(int64_t{1}), Value(int64_t{100})}})
                  .ok());
  auto conn = controller_->Connect("shop");
  // A committed write moves each replica's snapshot frontier past 0.
  ASSERT_TRUE(
      conn->Execute("UPDATE item SET i_stock = 99 WHERE i_id = 1").ok());

  auto& registry = obs::MetricsRegistry::Global();
  int64_t begins =
      registry.CounterValue("mtdb_rpc_total", {.operation = "Begin"});
  ASSERT_TRUE(conn->Begin(/*read_only=*/true).ok());
  EXPECT_EQ(conn->snapshot_ts(), 0u);
  auto read = conn->Execute("SELECT i_stock FROM item WHERE i_id = 1");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->rows.size(), 1u);
  EXPECT_EQ(read->rows[0][0], Value(int64_t{99}));
  EXPECT_GT(conn->snapshot_ts(), 0u);
  ASSERT_TRUE(conn->Commit().ok());
  EXPECT_EQ(registry.CounterValue("mtdb_rpc_total", {.operation = "Begin"}),
            begins);
}

TEST_F(NetTcpTest, ReplicaContentsIdenticalAfterManyTransactions) {
  StartCluster(2);
  ASSERT_TRUE(controller_->CreateDatabaseOn("db", {0, 1}).ok());
  ASSERT_TRUE(
      controller_
          ->ExecuteDdl("db", "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
          .ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 30; ++i) rows.push_back({Value(i), Value(i)});
  ASSERT_TRUE(controller_->BulkLoad("db", "t", rows).ok());

  auto conn = controller_->Connect("db");
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(conn->Begin().ok());
    ASSERT_TRUE(conn->Execute("UPDATE t SET v = v + ? WHERE id = ?",
                              {Value(i), Value(i)})
                    .ok());
    ASSERT_TRUE(conn->Commit().ok());
  }
  uint64_t fp0 = remotes_[0]->machine.engine()->GetDatabase("db")->GetTable(
      "t")->ContentFingerprint();
  uint64_t fp1 = remotes_[1]->machine.engine()->GetDatabase("db")->GetTable(
      "t")->ContentFingerprint();
  EXPECT_EQ(fp0, fp1);
}

TEST_F(NetTcpTest, DeadServerSurfacesAsUnavailableNotHang) {
  StartCluster(2);
  ASSERT_TRUE(controller_->CreateDatabaseOn("db", {0, 1}).ok());
  ASSERT_TRUE(
      controller_->ExecuteDdl("db", "CREATE TABLE t (id INT PRIMARY KEY)")
          .ok());

  // Kill machine 1's server out from under the controller. The next write
  // that reaches it gets a dead socket -> kUnavailable; the conservative
  // controller reports success as long as one replica applied the write,
  // and the transaction still commits on the survivor.
  remotes_[1]->server.Stop();
  auto conn = controller_->Connect("db");
  ASSERT_TRUE(conn->Begin().ok());
  auto write = conn->Execute("INSERT INTO t (id) VALUES (1)");
  ASSERT_TRUE(write.ok()) << write.status().ToString();
  Status commit = conn->Commit();
  EXPECT_TRUE(commit.ok()) << commit.ToString();
  auto stored =
      remotes_[0]->machine.engine()->GetDatabase("db")->GetTable("t")->Get(
          Value(int64_t{1}));
  EXPECT_TRUE(stored.has_value());
}

TEST_F(NetTcpTest, ClosedConnectionsAreReaped) {
  // Connection-per-request clients: every closed connection's server thread
  // must be joined, not parked until Stop.
  StartCluster(1);
  net::TcpServer& server = remotes_[0]->server;
  for (int i = 0; i < 64; ++i) {
    std::promise<net::RpcResponse> reply;
    std::future<net::RpcResponse> answered = reply.get_future();
    std::unique_ptr<net::Channel> channel = transport_.OpenChannel(0);
    net::RpcRequest request;
    request.type = net::RpcType::kHealth;
    channel->Call(request, [&reply](net::RpcResponse response) {
      reply.set_value(std::move(response));
    });
    ASSERT_TRUE(answered.get().ok());
  }
  // Each server thread sees its client's close asynchronously.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.connection_count() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(server.connection_count(), 1u);
  server.Stop();
  EXPECT_EQ(server.connection_count(), 0u);
}

}  // namespace
}  // namespace mtdb
