// Fault-injection tests for the RPC layer: lost replies and partitions must
// surface as deadline expiries that feed the existing machine-failure and
// recovery path — no hang, no double-commit, no lost committed data.
//
// These tests run under the "sanitizer" ctest label (TSan/ASan in CI): the
// timeout watchdog, the reply path, and the controller race by design.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/cluster_controller.h"
#include "src/cluster/replica_builder.h"
#include "src/common/clock.h"
#include "src/net/inproc_transport.h"
#include "src/obs/metrics.h"

namespace mtdb {
namespace {

class NetTransportTest : public ::testing::Test {
 protected:
  void Build(ClusterControllerOptions options, int machines = 3) {
    // Short RPC deadline so lost-reply tests resolve quickly; generous
    // enough that instrumented (TSan) builds do not trip it spuriously on
    // healthy calls.
    options.rpc.call_timeout_us = 2'000'000;
    controller_ = std::make_unique<ClusterController>(options);
    for (int m = 0; m < machines; ++m) controller_->AddMachine();
    ASSERT_TRUE(controller_->CreateDatabaseOn("shop", {0, 1}).ok());
    ASSERT_TRUE(controller_
                    ->ExecuteDdl("shop",
                                 "CREATE TABLE item (i_id INT PRIMARY KEY, "
                                 "i_stock INT)")
                    .ok());
    std::vector<Row> rows;
    for (int64_t i = 1; i <= 20; ++i) {
      rows.push_back({Value(i), Value(int64_t{100})});
    }
    ASSERT_TRUE(controller_->BulkLoad("shop", "item", rows).ok());
  }

  int64_t StockOnEngine(int machine_id, int64_t item) {
    Database* db = controller_->machine(machine_id)->engine()->GetDatabase(
        "shop");
    EXPECT_NE(db, nullptr);
    Table* table = db->GetTable("item");
    EXPECT_NE(table, nullptr);
    auto stored = table->Get(Value(item));
    if (!stored.has_value()) {
      ADD_FAILURE() << "item " << item << " not found on machine "
                    << machine_id;
      return -1;
    }
    return stored->values[1].AsInt();
  }

  std::unique_ptr<ClusterController> controller_;
};

TEST_F(NetTransportTest, DroppedPrepareReplyResolvesViaTimeoutAndRecovery) {
  Build(ClusterControllerOptions{});
  net::InProcTransport* transport = controller_->inproc_transport();
  ASSERT_NE(transport, nullptr);

  // Lose exactly the first PREPARE reply addressed to machine 1: the
  // participant votes (its engine state advances to prepared) but the
  // coordinator never hears the vote — the classic 2PC lost-ack case.
  std::atomic<int> dropped{0};
  transport->SetFaultHook(
      [&dropped](int machine_id, const net::RpcRequest& request) {
        if (machine_id == 1 && request.type == net::RpcType::kPrepare &&
            dropped.fetch_add(1) == 0) {
          return net::InProcTransport::Fault::kDropReply;
        }
        return net::InProcTransport::Fault::kDeliver;
      });

  auto conn = controller_->Connect("shop");
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Execute("UPDATE item SET i_stock = i_stock - 1 "
                            "WHERE i_id = 7")
                  .ok());
  // Must not hang: the deadline converts the silent machine into a failure.
  Status commit = conn->Commit();
  EXPECT_TRUE(commit.ok()) << commit.ToString();
  EXPECT_EQ(dropped.load(), 1);

  // The silent machine was declared failed (fail-stop), and the commit went
  // through on the surviving replica exactly once.
  EXPECT_TRUE(controller_->machine(1)->failed());
  EXPECT_FALSE(controller_->machine(0)->failed());
  EXPECT_EQ(controller_->committed_transactions(), 1);
  EXPECT_EQ(StockOnEngine(0, 7), 99);

  // Recovery restores the replication factor; the new replica carries the
  // committed write (no lost update, no double-applied decrement).
  transport->SetFaultHook(nullptr);
  ReplicaBuilder recovery(controller_.get(), ReplicaBuilderOptions{});
  auto results = recovery.RecoverAll(2);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  int target = results[0].target_machine;
  EXPECT_NE(target, 1);
  EXPECT_EQ(StockOnEngine(target, 7), 99);

  // The cluster's committed histories stay serializable after all that.
  auto report = controller_->CheckClusterSerializability();
  EXPECT_TRUE(report.serializable) << report.ToString();

  // Sanity: the traffic above really crossed the transport as frames.
  EXPECT_GT(transport->delivered_count(), 0);
}

TEST_F(NetTransportTest, PartitionedReplicaFailsOverForReads) {
  ClusterControllerOptions options;
  options.read_option = ReadRoutingOption::kPerTransaction;
  Build(options);
  net::InProcTransport* transport = controller_->inproc_transport();

  // Cut machine 0 off entirely. The first read routed to it times out, the
  // controller declares it failed, and the retry path serves the read from
  // the surviving replica.
  transport->PartitionMachine(0);
  auto conn = controller_->Connect("shop");
  auto read = conn->Execute("SELECT i_stock FROM item WHERE i_id = 3");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->rows.size(), 1u);
  EXPECT_EQ(read->rows[0][0], Value(int64_t{100}));
  // The partitioned replica was declared failed by the deadline watchdog.
  EXPECT_TRUE(controller_->machine(0)->failed());
  EXPECT_FALSE(controller_->machine(1)->failed());

  transport->HealMachine(0);
}

TEST_F(NetTransportTest, LostReplyIncrementsTimeoutAndFailoverCounters) {
  // Same lost-PREPARE-ack scenario as above, but the assertion target is the
  // observability layer: the deadline expiry must surface as an RPC timeout
  // counter for the Prepare operation and as exactly one machine failover.
  auto& registry = obs::MetricsRegistry::Global();
  obs::MetricLabels prepare{.operation = "Prepare"};
  int64_t timeouts_before =
      registry.CounterValue("mtdb_rpc_timeout_total", prepare);
  int64_t failovers_before =
      registry.CounterValue("mtdb_machine_failover_total", {});
  int64_t prepares_before = registry.CounterValue("mtdb_rpc_total", prepare);

  Build(ClusterControllerOptions{});
  net::InProcTransport* transport = controller_->inproc_transport();
  ASSERT_NE(transport, nullptr);
  std::atomic<int> dropped{0};
  transport->SetFaultHook(
      [&dropped](int machine_id, const net::RpcRequest& request) {
        if (machine_id == 1 && request.type == net::RpcType::kPrepare &&
            dropped.fetch_add(1) == 0) {
          return net::InProcTransport::Fault::kDropReply;
        }
        return net::InProcTransport::Fault::kDeliver;
      });

  auto conn = controller_->Connect("shop");
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Execute("UPDATE item SET i_stock = i_stock - 1 "
                            "WHERE i_id = 5")
                  .ok());
  Status commit = conn->Commit();
  EXPECT_TRUE(commit.ok()) << commit.ToString();
  transport->SetFaultHook(nullptr);

  // The watchdog fired for the silent Prepare and converted it into
  // kUnavailable; both the timeout and the total-call counters saw it.
  EXPECT_EQ(registry.CounterValue("mtdb_rpc_timeout_total", prepare),
            timeouts_before + 1);
  EXPECT_GE(registry.CounterValue("mtdb_rpc_total", prepare),
            prepares_before + 2);  // one answered, one timed out
  // One machine transitioned to failed — transition-counted even though
  // FailMachine can be re-entered by later timeouts against the same box.
  EXPECT_EQ(registry.CounterValue("mtdb_machine_failover_total", {}),
            failovers_before + 1);
  EXPECT_TRUE(controller_->machine(1)->failed());
}

TEST_F(NetTransportTest, WalDeltaReadProbeCountsInClientRpcMetrics) {
  // The client-side RPC metrics cover every request type in use, the
  // live-migration delta calls included: a capability probe against a
  // machine without a WAL is answered with kFailedPrecondition and counted.
  auto& registry = obs::MetricsRegistry::Global();
  obs::MetricLabels delta_read{.operation = "WalDeltaRead"};
  int64_t calls_before = registry.CounterValue("mtdb_rpc_total", delta_read);

  Build(ClusterControllerOptions{});
  uint64_t frontier = 0;
  auto lines = controller_->machine_client()->WalDeltaRead(
      0, "shop", std::numeric_limits<uint64_t>::max(), &frontier);
  EXPECT_EQ(lines.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.CounterValue("mtdb_rpc_total", delta_read),
            calls_before + 1);
}

TEST_F(NetTransportTest, AnsweredCallsReleaseTheirDeadlines) {
  // A reply disarms its call's deadline at once: answered calls must not
  // sit in the watchdog's map until their deadline passes.
  Build(ClusterControllerOptions{});
  net::MachineClient* client = controller_->machine_client();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client->Health(i % 3).ok());
  }
  EXPECT_EQ(client->armed_deadlines(), 0u);
}

TEST_F(NetTransportTest, InlineCallArmsNoDeadline) {
  // A call answered before Channel::Call returns never enters the
  // watchdog's map: while an inline Health call is being delivered, nothing
  // is armed.
  Build(ClusterControllerOptions{});
  net::InProcTransport* transport = controller_->inproc_transport();
  net::MachineClient* client = controller_->machine_client();
  std::atomic<int64_t> armed_during_delivery{-1};
  transport->SetFaultHook(
      [client, &armed_during_delivery](int machine_id,
                                       const net::RpcRequest& request) {
        if (machine_id == 1 && request.type == net::RpcType::kHealth) {
          armed_during_delivery.store(
              static_cast<int64_t>(client->armed_deadlines()));
        }
        return net::InProcTransport::Fault::kDeliver;
      });
  ASSERT_TRUE(client->Health(1).ok());
  EXPECT_EQ(armed_during_delivery.load(), 0);

  // A dropped request is still pending when Call returns: it is armed, and
  // its deadline answers it with kUnavailable.
  transport->SetFaultHook([](int machine_id, const net::RpcRequest& request) {
    return machine_id == 2 && request.type == net::RpcType::kHealth
               ? net::InProcTransport::Fault::kDropRequest
               : net::InProcTransport::Fault::kDeliver;
  });
  Status dropped;
  std::thread caller([client, &dropped] { dropped = client->Health(2); });
  int64_t give_up_us = NowMicros() + 1'000'000;
  while (client->armed_deadlines() == 0 && NowMicros() < give_up_us) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(client->armed_deadlines(), 1u);
  caller.join();
  EXPECT_EQ(dropped.code(), StatusCode::kUnavailable) << dropped.ToString();
  EXPECT_EQ(client->armed_deadlines(), 0u);
  transport->SetFaultHook(nullptr);
}

// Sends a Health request on `session`, allowed to run inline, and returns
// whether it was answered before the send returned. A dropped request is
// left to its deadline.
bool AnsweredInline(net::MachineClient::Session* session) {
  net::RpcRequest request;
  request.type = net::RpcType::kHealth;
  request.may_run_inline = true;
  auto answered = std::make_shared<std::atomic<bool>>(false);
  session->CallAsync(std::move(request),
                     [answered](net::RpcResponse) { answered->store(true); });
  return answered->load();
}

TEST_F(NetTransportTest, FaultsInstalledAfterTrafficStillApply) {
  // A channel that has already delivered requests (and resolved its
  // machine) still sees a fault hook or a partition installed afterwards.
  Build(ClusterControllerOptions{});
  net::InProcTransport* transport = controller_->inproc_transport();
  net::MachineClient* client = controller_->machine_client();
  auto session = client->OpenSession(2);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(AnsweredInline(session.get()));

  transport->SetFaultHook([](int machine_id, const net::RpcRequest&) {
    return machine_id == 2 ? net::InProcTransport::Fault::kDropRequest
                           : net::InProcTransport::Fault::kDeliver;
  });
  EXPECT_FALSE(AnsweredInline(session.get()));
  EXPECT_EQ(client->armed_deadlines(), 1u);
  // Answer the dropped call now, without declaring the machine failed.
  client->AbandonArmedCalls();
  transport->SetFaultHook(nullptr);
  EXPECT_TRUE(AnsweredInline(session.get()));

  transport->PartitionMachine(2);
  EXPECT_FALSE(AnsweredInline(session.get()));
  EXPECT_EQ(client->armed_deadlines(), 1u);
  client->AbandonArmedCalls();
  transport->HealMachine(2);
  EXPECT_TRUE(AnsweredInline(session.get()));
  EXPECT_EQ(client->armed_deadlines(), 0u);
  EXPECT_FALSE(controller_->machine(2)->failed());
}

TEST_F(NetTransportTest, DroppedControlRequestSurfacesAsUnavailable) {
  Build(ClusterControllerOptions{});
  net::InProcTransport* transport = controller_->inproc_transport();
  transport->SetFaultHook([](int machine_id, const net::RpcRequest& request) {
    if (machine_id == 2 && request.type == net::RpcType::kCreateDatabase) {
      return net::InProcTransport::Fault::kDropRequest;
    }
    return net::InProcTransport::Fault::kDeliver;
  });
  // The lost request times out; CreateDatabaseOn rolls back the replica it
  // already created and reports the failure instead of wedging.
  Status status = controller_->CreateDatabaseOn("other", {0, 2});
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  EXPECT_TRUE(controller_->DatabaseNames() ==
              std::vector<std::string>{"shop"});
  transport->SetFaultHook(nullptr);
}

// --- in-process delivery on the caller's thread ---

int64_t RpcCalls(const std::string& operation) {
  return obs::MetricsRegistry::Global().CounterValue(
      "mtdb_rpc_total", {.operation = operation});
}

TEST_F(NetTransportTest, ReadTransactionSendsNoBegin) {
  // The first read to a machine carries the begin: a one-read transaction
  // is one execute and one commit, with no kBegin round trip.
  Build(ClusterControllerOptions{});
  auto conn = controller_->Connect("shop");
  int64_t begins = RpcCalls("Begin");
  int64_t executes = RpcCalls("Execute");
  int64_t commits = RpcCalls("Commit");
  ASSERT_TRUE(conn->Begin().ok());
  auto read = conn->Execute("SELECT i_stock FROM item WHERE i_id = 3");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_TRUE(conn->Commit().ok());
  EXPECT_EQ(RpcCalls("Begin") - begins, 0);
  EXPECT_EQ(RpcCalls("Execute") - executes, 1);
  EXPECT_EQ(RpcCalls("Commit") - commits, 1);
}

TEST_F(NetTransportTest, WaitedReadRunsOnCallerThread) {
  // A read blocks its connection until the reply, so the in-process
  // transport runs it on the connection's own thread.
  Build(ClusterControllerOptions{});
  std::mutex mu;
  std::vector<std::thread::id> executors;
  controller_->inproc_transport()->SetFaultHook(
      [&mu, &executors](int, const net::RpcRequest& request) {
        if (request.type == net::RpcType::kExecute) {
          std::lock_guard<std::mutex> lock(mu);
          executors.push_back(std::this_thread::get_id());
        }
        return net::InProcTransport::Fault::kDeliver;
      });
  auto conn = controller_->Connect("shop");
  ASSERT_TRUE(conn->Execute("SELECT i_stock FROM item WHERE i_id = 1").ok());
  ASSERT_TRUE(conn->Begin(/*read_only=*/true).ok());
  ASSERT_TRUE(conn->Execute("SELECT i_stock FROM item WHERE i_id = 2").ok());
  ASSERT_TRUE(conn->Execute("SELECT i_stock FROM item WHERE i_id = 3").ok());
  ASSERT_TRUE(conn->Commit().ok());
  controller_->inproc_transport()->SetFaultHook(nullptr);
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(executors.size(), 3u);
  for (std::thread::id executor : executors) {
    EXPECT_EQ(executor, std::this_thread::get_id());
  }
}

TEST_F(NetTransportTest, WaitOnlySessionsStartNoThread) {
  // A session whose requests are all waited on never queues one, so its
  // channel never starts a thread: 50 open connections that each ran a
  // read transaction cost no threads.
  Build(ClusterControllerOptions{});
  auto threads = [] {
    int64_t n = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)entry;
      ++n;
    }
    return n;
  };
  int64_t before = threads();
  std::vector<std::unique_ptr<Connection>> connections;
  for (int i = 0; i < 50; ++i) {
    connections.push_back(controller_->Connect("shop"));
    Connection* conn = connections.back().get();
    ASSERT_TRUE(conn->Begin().ok());
    ASSERT_TRUE(conn->Execute("SELECT i_stock FROM item WHERE i_id = 5").ok());
    ASSERT_TRUE(conn->Commit().ok());
  }
  EXPECT_LT(threads() - before, 5);
}

TEST_F(NetTransportTest, TwoPhaseCommitFanOutsRunOnTheCommittingThread) {
  // No 2PC request blocks on a lock or a log, so PREPARE and COMMIT
  // PREPARED each run on the committing thread when their channel is idle,
  // as every channel is once a conservative write's replicas all answered:
  // a session thread hands its reply over only after going idle.
  Build(ClusterControllerOptions{});
  std::mutex mu;
  std::vector<std::pair<net::RpcType, std::thread::id>> executors;
  controller_->inproc_transport()->SetFaultHook(
      [&mu, &executors](int, const net::RpcRequest& request) {
        if (request.type == net::RpcType::kPrepare ||
            request.type == net::RpcType::kCommitPrepared) {
          std::lock_guard<std::mutex> lock(mu);
          executors.emplace_back(request.type, std::this_thread::get_id());
        }
        return net::InProcTransport::Fault::kDeliver;
      });
  auto conn = controller_->Connect("shop");
  for (int64_t item = 1; item <= 3; ++item) {
    ASSERT_TRUE(conn->Begin().ok());
    ASSERT_TRUE(conn->Execute("UPDATE item SET i_stock = i_stock - 1 "
                              "WHERE i_id = ?",
                              {Value(item)})
                    .ok());
    ASSERT_TRUE(conn->Commit().ok());
  }
  controller_->inproc_transport()->SetFaultHook(nullptr);
  std::lock_guard<std::mutex> lock(mu);
  // Three transactions, two replicas, two phases.
  ASSERT_EQ(executors.size(), 12u);
  for (const auto& [type, executor] : executors) {
    EXPECT_EQ(executor, std::this_thread::get_id()) << net::RpcTypeName(type);
  }
}

TEST_F(NetTransportTest, QueuedWriteRunsBeforeALaterRead) {
  // Under aggressive ack the write is acknowledged by the fast replica while
  // the delayed one still has it queued on this connection's session. A
  // later read on that session waits behind it (per-session FIFO) instead
  // of running inline ahead of it, so the read sees the write.
  ClusterControllerOptions options;
  options.write_policy = WriteAckPolicy::kAggressive;
  Build(options);
  // Find the replica reads go to (Option 1: the database's primary).
  std::atomic<int> read_machine{-1};
  controller_->inproc_transport()->SetFaultHook(
      [&read_machine](int machine_id, const net::RpcRequest& request) {
        if (request.type == net::RpcType::kExecute) {
          read_machine.store(machine_id);
        }
        return net::InProcTransport::Fault::kDeliver;
      });
  auto conn = controller_->Connect("shop");
  ASSERT_TRUE(conn->Execute("SELECT i_stock FROM item WHERE i_id = 4").ok());
  controller_->inproc_transport()->SetFaultHook(nullptr);
  int slow = read_machine.load();
  ASSERT_GE(slow, 0);

  constexpr int64_t kDelayUs = 300'000;
  controller_->SetLatencyInjector(
      [slow](const std::string&, bool is_write, int machine_id) -> int64_t {
        return is_write && machine_id == slow ? kDelayUs : 0;
      });
  ASSERT_TRUE(conn->Begin().ok());
  int64_t start_us = NowMicros();
  ASSERT_TRUE(
      conn->Execute("UPDATE item SET i_stock = 42 WHERE i_id = 4").ok());
  // The acknowledgement came from the fast replica, before the delay ended.
  EXPECT_LT(NowMicros() - start_us, kDelayUs);
  auto read = conn->Execute("SELECT i_stock FROM item WHERE i_id = 4");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->rows.size(), 1u);
  EXPECT_EQ(read->rows[0][0], Value(int64_t{42}));
  EXPECT_TRUE(conn->Commit().ok());
  controller_->SetLatencyInjector(nullptr);
  EXPECT_EQ(StockOnEngine(0, 4), 42);
  EXPECT_EQ(StockOnEngine(1, 4), 42);
}

}  // namespace
}  // namespace mtdb
