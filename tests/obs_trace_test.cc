// Tests for cross-machine transaction tracing: trace-id minting, span
// assembly, the slow-transaction log, and end-to-end propagation of the
// trace id through the RPC header over both the in-process transport and
// real TCP sockets.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/cluster_controller.h"
#include "src/cluster/machine.h"
#include "src/common/logging.h"
#include "src/net/machine_service.h"
#include "src/net/tcp_transport.h"
#include "src/obs/trace.h"

namespace mtdb {
namespace {

using obs::TraceCollector;
using obs::TraceRecord;
using obs::TraceSpan;

TEST(ObsTraceTest, MintsDistinctNonzeroIdsAndAssemblesSpans) {
  auto& collector = TraceCollector::Global();
  collector.ResetForTest();
  collector.set_slow_threshold_us(0);  // retain every finished trace
  uint64_t a = collector.StartTrace(/*txn_id=*/100);
  uint64_t b = collector.StartTrace(/*txn_id=*/101);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  ASSERT_NE(a, b);

  TraceSpan span;
  span.trace_id = a;
  span.machine_id = 2;
  span.operation = "Execute";
  span.client_duration_us = 250;
  span.server_duration_us = 180;
  collector.RecordSpan(span);

  // Spans addressed to zero or unknown traces are dropped, not crashed on.
  span.trace_id = 0;
  collector.RecordSpan(span);
  span.trace_id = a + b + 1'000'000;
  collector.RecordSpan(span);

  collector.FinishTrace(a, /*committed=*/true);
  std::vector<TraceRecord> finished = collector.SlowTraces();
  ASSERT_EQ(finished.size(), 1u);
  const TraceRecord& record = finished[0];
  EXPECT_EQ(record.trace_id, a);
  EXPECT_EQ(record.txn_id, 100u);
  EXPECT_TRUE(record.committed);
  ASSERT_EQ(record.spans.size(), 1u);
  EXPECT_EQ(record.spans[0].operation, "Execute");
  EXPECT_EQ(record.spans[0].server_duration_us, 180);

  collector.FinishTrace(b, /*committed=*/false);
  // Double-finish is a harmless no-op (abort-after-commit-failure paths).
  collector.FinishTrace(b, /*committed=*/false);
  EXPECT_EQ(collector.SlowTraces().size(), 2u);
  collector.ResetForTest();
}

TEST(ObsTraceTest, SlowTransactionsLandInTheSlowRing) {
  auto& collector = TraceCollector::Global();
  collector.ResetForTest();
  collector.set_slow_threshold_us(0);  // everything is "slow"
  uint64_t id = collector.StartTrace(/*txn_id=*/7);
  collector.FinishTrace(id, /*committed=*/true);
  auto slow = collector.SlowTraces();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].txn_id, 7u);
  EXPECT_FALSE(slow[0].ToString().empty());

  collector.set_slow_threshold_us(1'000'000'000);
  id = collector.StartTrace(/*txn_id=*/8);
  collector.FinishTrace(id, /*committed=*/true);
  EXPECT_EQ(collector.SlowTraces().size(), 1u);  // fast txn not retained
}

TEST(ObsTraceTest, ConcurrentTracesKeepTheirSpans) {
  // Eight threads trace at once, on shards shared between them: every
  // retained record carries exactly the spans recorded for its trace.
  auto& collector = TraceCollector::Global();
  collector.ResetForTest();
  collector.set_slow_threshold_us(0);  // retain every finished trace
  LogLevel log_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // every trace is "slow": keep the log quiet
  constexpr int kThreads = 8;
  constexpr int kTracesPerThread = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&collector, t] {
      for (int i = 0; i < kTracesPerThread; ++i) {
        // The txn id names the thread and the trace's index in it, and the
        // index picks how many spans the trace gets.
        uint64_t id = collector.StartTrace(/*txn_id=*/t * 1000 + i);
        for (int n = 0; n < 1 + i % 4; ++n) {
          TraceSpan span;
          span.trace_id = id;
          span.machine_id = t;
          span.start_us = i;
          span.operation = "Execute";
          collector.RecordSpan(span);
        }
        collector.FinishTrace(id, /*committed=*/true);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  SetLogLevel(log_level);
  std::vector<TraceRecord> finished = collector.SlowTraces();
  EXPECT_EQ(finished.size(), 128u);  // the slow ring's capacity
  for (const TraceRecord& record : finished) {
    int thread = static_cast<int>(record.txn_id / 1000);
    int index = static_cast<int>(record.txn_id % 1000);
    ASSERT_EQ(record.spans.size(), static_cast<size_t>(1 + index % 4))
        << "txn " << record.txn_id;
    for (const TraceSpan& span : record.spans) {
      EXPECT_EQ(span.trace_id, record.trace_id);
      EXPECT_EQ(span.machine_id, thread);
      EXPECT_EQ(span.start_us, index);
    }
  }
  EXPECT_EQ(collector.active_traces(), 0u);
  collector.ResetForTest();
}

TEST(ObsTraceTest, AbandonedTracesStayBounded) {
  // Transactions that never finish must not pin memory: past the cap the
  // oldest active traces are dropped.
  constexpr size_t kCap = 4096;
  auto& collector = TraceCollector::Global();
  collector.ResetForTest();
  collector.set_slow_threshold_us(0);
  uint64_t first = collector.StartTrace(/*txn_id=*/1);
  uint64_t last = first;
  for (size_t i = 1; i < 3 * kCap; ++i) {
    last = collector.StartTrace(/*txn_id=*/1);
    ASSERT_LE(collector.active_traces(), kCap);
  }
  EXPECT_LE(collector.active_traces(), kCap);
  // The oldest is gone (finishing it is a no-op); the newest is live.
  collector.FinishTrace(first, /*committed=*/true);
  EXPECT_TRUE(collector.SlowTraces().empty());
  collector.FinishTrace(last, /*committed=*/true);
  ASSERT_EQ(collector.SlowTraces().size(), 1u);
  EXPECT_EQ(collector.SlowTraces()[0].trace_id, last);
  collector.ResetForTest();
}

// Drives one transaction and returns the finished trace for it, read from
// the slow ring with the threshold at 0.
TraceRecord RunTracedTransaction(ClusterController* controller) {
  auto& collector = TraceCollector::Global();
  collector.ResetForTest();
  collector.set_slow_threshold_us(0);
  auto conn = controller->Connect("shop");
  EXPECT_TRUE(conn->Begin().ok());
  auto read = conn->Execute("SELECT i_stock FROM item WHERE i_id = ?",
                            {Value(int64_t{3})});
  EXPECT_TRUE(read.ok()) << read.status().ToString();
  auto write = conn->Execute(
      "UPDATE item SET i_stock = i_stock - 1 WHERE i_id = ?",
      {Value(int64_t{3})});
  EXPECT_TRUE(write.ok()) << write.status().ToString();
  EXPECT_TRUE(conn->Commit().ok());
  std::vector<TraceRecord> finished = collector.SlowTraces();
  collector.ResetForTest();
  EXPECT_EQ(finished.size(), 1u);
  return finished.empty() ? TraceRecord{} : finished.back();
}

void LoadShop(ClusterController* controller, const std::vector<int>& replicas) {
  ASSERT_TRUE(controller->CreateDatabaseOn("shop", replicas).ok());
  ASSERT_TRUE(controller
                  ->ExecuteDdl("shop",
                               "CREATE TABLE item (i_id INT PRIMARY KEY, "
                               "i_stock INT)")
                  .ok());
  std::vector<Row> rows;
  for (int64_t i = 1; i <= 10; ++i) {
    rows.push_back({Value(i), Value(int64_t{100})});
  }
  ASSERT_TRUE(controller->BulkLoad("shop", "item", rows).ok());
}

TEST(ObsTraceTest, TraceIdPropagatesAcrossInProcTransport) {
  ClusterController controller{ClusterControllerOptions{}};
  controller.AddMachine();
  controller.AddMachine();
  LoadShop(&controller, {0, 1});

  TraceRecord record = RunTracedTransaction(&controller);
  ASSERT_NE(record.trace_id, 0u);
  EXPECT_TRUE(record.committed);
  EXPECT_GT(record.duration_us, 0);
  // The transaction touched both replicas: begin/read/write/2PC spans.
  ASSERT_GE(record.spans.size(), 4u);
  bool saw_prepare = false;
  for (const TraceSpan& span : record.spans) {
    EXPECT_EQ(span.trace_id, record.trace_id);
    // The machine echoed its service time, which proves the request's trace
    // context and the response's duration field crossed the codec intact.
    EXPECT_GE(span.server_duration_us, 0) << span.operation;
    EXPECT_GE(span.client_duration_us, 0);
    if (span.operation == "Prepare") saw_prepare = true;
  }
  EXPECT_TRUE(saw_prepare);
}

TEST(ObsTraceTest, TraceIdPropagatesAcrossTcpTransport) {
  // Real sockets: machine engines live behind TcpServer+MachineService and
  // the only path for the trace id is the wire encoding itself.
  struct RemoteMachine {
    explicit RemoteMachine(int id)
        : machine(id, MachineOptions()), service(&machine), server(&service) {}
    Machine machine;
    net::MachineService service;
    net::TcpServer server;
  };
  net::TcpTransport transport;
  std::vector<std::unique_ptr<RemoteMachine>> remotes;
  for (int m = 0; m < 2; ++m) {
    remotes.push_back(std::make_unique<RemoteMachine>(m));
    ASSERT_TRUE(remotes.back()->server.Start(/*port=*/0).ok());
    transport.AddEndpoint(m, "127.0.0.1", remotes.back()->server.port());
  }
  ClusterControllerOptions options;
  options.transport = &transport;
  options.rpc.call_timeout_us = 10'000'000;
  {
    ClusterController controller(options);
    controller.AddMachine();
    controller.AddMachine();
    LoadShop(&controller, {0, 1});

    TraceRecord record = RunTracedTransaction(&controller);
    ASSERT_NE(record.trace_id, 0u);
    ASSERT_GE(record.spans.size(), 4u);
    for (const TraceSpan& span : record.spans) {
      EXPECT_EQ(span.trace_id, record.trace_id);
      EXPECT_GE(span.server_duration_us, 0) << span.operation;
    }
  }
  for (auto& remote : remotes) remote->server.Stop();
}

}  // namespace
}  // namespace mtdb
