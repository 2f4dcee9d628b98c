// Live-migration and rebalancer tests (DESIGN.md §16).
//
// The contract under test: a tenant can be moved between machines while it
// keeps serving — zero failed in-flight transactions, zero lost writes,
// snapshot reads pinned to the source stay valid until their transaction
// ends, and an injected fault during delta catch-up aborts cleanly back to
// the source. Plus the control loop around it: planner decisions, the
// LoadMonitor idle-decay regression, and hysteresis/cooldown on Tick().
//
// This tier carries the "sanitizer;rebalance" labels (tests/CMakeLists.txt),
// so the TSan CI job's `ctest -L sanitizer` run includes it.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/cluster_controller.h"
#include "src/cluster/rebalance/rebalancer.h"
#include "src/cluster/replica_builder.h"
#include "src/net/inproc_transport.h"
#include "src/net/message.h"
#include "src/obs/load_monitor.h"
#include "src/storage/wal/wal.h"
#include "tests/wal_replay_check.h"

namespace mtdb {
namespace {

MachineOptions FastMachine() {
  MachineOptions options;
  options.engine_options.lock_options.lock_timeout_us = 2'000'000;
  return options;
}

// A machine with its own group-commit WAL (live migrations need one on the
// source). The file is per-test and per-machine; a stale file from a crashed
// earlier run would be replayed as recovery, so remove it first.
MachineOptions WalMachine(const std::string& tag, int id) {
  MachineOptions options = FastMachine();
  options.engine_options.wal_path =
      ::testing::TempDir() + "mtdb_rebalance_" + tag + "_" +
      std::to_string(static_cast<long long>(getpid())) + "_" +
      std::to_string(id) + ".wal";
  std::remove(options.engine_options.wal_path.c_str());
  return options;
}

// Tells a move's delta installs from its bulk copy's: both are
// kApplyRecords, and the deltas are the ones after the first delta read
// past the capability probe.
class DeltaInstalls {
 public:
  bool Match(const net::RpcRequest& request) {
    if (request.type == net::RpcType::kWalDeltaRead &&
        request.wal_cursor != UINT64_MAX) {
      reading_.store(true);
    }
    return request.type == net::RpcType::kApplyRecords && reading_.load();
  }

 private:
  std::atomic<bool> reading_{false};
};

rebalance::MigrationPlan MakePlan(const std::string& db, int source,
                                  int target) {
  rebalance::MigrationPlan plan;
  plan.database = db;
  plan.source_machine = source;
  plan.target_machine = target;
  return plan;
}

class RebalanceTest : public ::testing::Test {
 protected:
  void BuildWal(const std::string& tag, int machines,
                ClusterControllerOptions options = {},
                int64_t sync_delay_us = 0) {
    controller_ = std::make_unique<ClusterController>(options);
    wal_paths_.clear();
    for (int i = 0; i < machines; ++i) {
      MachineOptions machine = WalMachine(tag, i);
      machine.engine_options.wal_sync_delay_us = sync_delay_us;
      wal_paths_.push_back(machine.engine_options.wal_path);
      controller_->AddMachine(machine);
    }
  }

  void BuildPlain(int machines, ClusterControllerOptions options = {}) {
    controller_ = std::make_unique<ClusterController>(options);
    for (int i = 0; i < machines; ++i) {
      controller_->AddMachine(FastMachine());
    }
  }

  void TearDown() override {
    controller_.reset();
    for (const std::string& path : wal_paths_) std::remove(path.c_str());
  }

  // One single-replica tenant on `machine` with a counter table.
  void SetUpCounters(const std::string& db, int machine, int64_t rows) {
    ASSERT_TRUE(controller_->CreateDatabaseOn(db, {machine}).ok());
    ASSERT_TRUE(controller_
                    ->ExecuteDdl(db,
                                 "CREATE TABLE counters (id INT PRIMARY KEY, "
                                 "v INT)")
                    .ok());
    std::vector<Row> load;
    for (int64_t i = 0; i < rows; ++i) {
      load.push_back({Value(i), Value(int64_t{0})});
    }
    ASSERT_TRUE(controller_->BulkLoad(db, "counters", load).ok());
  }

  catalog::CopyState CopyOf(const std::string& db) {
    catalog::CopyState copy;
    const catalog::TenantCatalog* cat = controller_->tenant_catalog();
    EXPECT_TRUE(cat->With(db, [&](const catalog::TenantRecord& record) {
                     copy = record.copy;
                   })
                    .ok());
    return copy;
  }

  // Waits until every acknowledged commit of `db` has its COMMIT record
  // durable: phase 2 runs behind the client's answer and keeps the tenant
  // pinned until the last participant acks it.
  void AwaitPhaseTwo(const std::string& db) {
    while (controller_->tenant_catalog()->PinCount(db) > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  int64_t CounterValue(int machine, const std::string& db, int64_t id) {
    Table* table = controller_->machine(machine)
                       ->engine()
                       ->GetDatabase(db)
                       ->GetTable("counters");
    auto row = table->Get(Value(id));
    return row.has_value() ? row->values[1].AsInt() : -1;
  }

  std::unique_ptr<ClusterController> controller_;
  std::vector<std::string> wal_paths_;
};

// --- Planner ----------------------------------------------------------

TEST(PlannerTest, UtilizationIsTheHottestDimension) {
  ResourceVector capacity(100, 1000, 1000, 100);
  EXPECT_DOUBLE_EQ(rebalance::Utilization({50, 100, 100, 10}, capacity), 0.5);
  EXPECT_DOUBLE_EQ(rebalance::Utilization({10, 900, 100, 10}, capacity), 0.9);
  // Degenerate capacity never divides by zero.
  EXPECT_DOUBLE_EQ(rebalance::Utilization({50, 0, 0, 0}, ResourceVector{}), 0);
}

TEST(PlannerTest, MovesLargestTenantOffTheHotMachine) {
  rebalance::ClusterLoadView view;
  ResourceVector capacity(100, 4096, 100000, 1000);
  view.machines.push_back({0, capacity, ResourceVector(80, 0, 0, 0), true});
  view.machines.push_back({1, capacity, ResourceVector(0, 0, 0, 0), true});
  view.tenants.push_back({"big", ResourceVector(50, 0, 0, 0), {0}});
  view.tenants.push_back({"small", ResourceVector(30, 0, 0, 0), {0}});

  rebalance::FirstFitReplanner planner;
  auto plan = planner.Plan(view);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->database, "big");
  EXPECT_EQ(plan->source_machine, 0);
  EXPECT_EQ(plan->target_machine, 1);
  EXPECT_FALSE(plan->reason.empty());
}

TEST(PlannerTest, BalancedClusterNeedsNoPlan) {
  rebalance::ClusterLoadView view;
  ResourceVector capacity(100, 4096, 100000, 1000);
  view.machines.push_back({0, capacity, ResourceVector(40, 0, 0, 0), true});
  view.machines.push_back({1, capacity, ResourceVector(40, 0, 0, 0), true});
  view.tenants.push_back({"a", ResourceVector(40, 0, 0, 0), {0}});
  view.tenants.push_back({"b", ResourceVector(40, 0, 0, 0), {1}});

  rebalance::FirstFitReplanner planner;
  EXPECT_FALSE(planner.Plan(view).has_value());
}

TEST(PlannerTest, NeverMovesToAFailedMachine) {
  rebalance::ClusterLoadView view;
  ResourceVector capacity(100, 4096, 100000, 1000);
  view.machines.push_back({0, capacity, ResourceVector(80, 0, 0, 0), true});
  view.machines.push_back({1, capacity, ResourceVector(0, 0, 0, 0), false});
  view.tenants.push_back({"big", ResourceVector(80, 0, 0, 0), {0}});

  rebalance::FirstFitReplanner planner;
  EXPECT_FALSE(planner.Plan(view).has_value());
}

// --- LoadMonitor idle decay (regression) ------------------------------

// A tenant that stops committing must decay to zero measured demand once
// its window empties — and drop out of the rebalancer's working set — so
// the planner never migrates a ghost. This was the staleness bug: the
// monitor kept reporting the last-known vector forever.
TEST(LoadMonitorIdleTest, IdleTenantDecaysToZeroDemand) {
  obs::LoadMonitor::Options options;
  options.window_us = 100'000;
  obs::LoadMonitor monitor(options);
  for (int i = 0; i < 20; ++i) {
    monitor.RecordTxn("busy", /*committed=*/true);
  }
  EXPECT_GT(monitor.TpsFor("busy"), 0.0);
  ResourceVector live = monitor.EstimateFor("busy");
  EXPECT_GT(live.cpu + live.memory_mb + live.disk_mb + live.disk_io, 0.0);
  ASSERT_EQ(monitor.ActiveDatabases().size(), 1u);
  EXPECT_EQ(monitor.ActiveDatabases()[0], "busy");

  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  EXPECT_DOUBLE_EQ(monitor.TpsFor("busy"), 0.0);
  ResourceVector idle = monitor.EstimateFor("busy");
  EXPECT_DOUBLE_EQ(idle.cpu, 0.0);
  EXPECT_DOUBLE_EQ(idle.memory_mb, 0.0);
  EXPECT_DOUBLE_EQ(idle.disk_mb, 0.0);
  EXPECT_DOUBLE_EQ(idle.disk_io, 0.0);
  EXPECT_TRUE(monitor.ActiveDatabases().empty());
}

// --- Live migration ---------------------------------------------------

TEST_F(RebalanceTest, LiveMigrationUnderConcurrentWritesLosesNothing) {
  BuildWal("live", 3);
  constexpr int kThreads = 4;
  constexpr int64_t kRowsPerThread = 4;
  constexpr int64_t kRows = kThreads * kRowsPerThread;
  SetUpCounters("hot", /*machine=*/0, kRows);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::array<std::atomic<int64_t>, kRows> commits{};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    // Disjoint row ranges per thread: no lock conflicts, so every failure
    // the counters record is the migration's fault, not contention's.
    writers.emplace_back([&, t] {
      auto conn = controller_->Connect("hot");
      int64_t iteration = 0;
      while (!stop.load()) {
        int64_t id = t * kRowsPerThread + (iteration++ % kRowsPerThread);
        Status status = conn->Begin();
        if (status.ok()) {
          auto write = conn->Execute(
              "UPDATE counters SET v = v + 1 WHERE id = " +
              std::to_string(id));
          if (write.ok()) {
            status = conn->Commit();
          } else {
            status = write.status();
            (void)conn->Abort();
          }
        }
        if (status.ok()) {
          commits[id].fetch_add(1);
        } else {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  ReplicaBuilderOptions migrator_options;
  migrator_options.per_row_delay_us = 200;  // widen the bulk-copy window
  ReplicaBuilder migrator(controller_.get(), migrator_options);
  Status migrated = migrator.Migrate(
      MakePlan("hot", 0, 1));

  // Keep writing after the swap: post-cutover traffic lands on the target.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (auto& writer : writers) writer.join();

  ASSERT_TRUE(migrated.ok()) << migrated.ToString();
  EXPECT_EQ(failures.load(), 0) << "in-flight transactions failed during "
                                   "the live migration";
  EXPECT_EQ(controller_->ReplicasOf("hot"), std::vector<int>{1});
  EXPECT_FALSE(CopyOf("hot").active);
  EXPECT_FALSE(controller_->machine(0)->engine()->HasDatabase("hot"));

  // Zero lost writes: every committed increment — before, during, and after
  // the move — is visible on the target replica.
  int64_t total = 0;
  for (int64_t id = 0; id < kRows; ++id) {
    EXPECT_EQ(CounterValue(/*machine=*/1, "hot", id), commits[id].load())
        << "row " << id;
    total += commits[id].load();
  }
  EXPECT_GT(total, 0);
  // The bulk copy, the deltas and the post-cutover writes are all in the
  // target's log.
  AwaitPhaseTwo("hot");
  ExpectLogReplaysEngine(controller_->machine(1)->engine().get());
}

TEST_F(RebalanceTest, TargetLogReplaysTheMovedTenant) {
  // A target that crashes after cutover recovers the moved tenant from its
  // own log: the copy installed through the one replay, which logs.
  BuildWal("replay", 2);
  SetUpCounters("hot", /*machine=*/0, /*rows=*/50);
  ReplicaBuilder migrator(controller_.get());
  Status migrated = migrator.Migrate(MakePlan("hot", 0, 1));
  ASSERT_TRUE(migrated.ok()) << migrated.ToString();
  auto conn = controller_->Connect("hot");
  ASSERT_TRUE(conn->Execute("UPDATE counters SET v = 7 WHERE id = 3").ok());
  EXPECT_EQ(CounterValue(/*machine=*/1, "hot", 3), 7);
  EXPECT_EQ(controller_->machine(1)
                ->engine()
                ->GetDatabase("hot")
                ->GetTable("counters")
                ->row_count(),
            50u);
  AwaitPhaseTwo("hot");
  ExpectLogReplaysEngine(controller_->machine(1)->engine().get());
}

TEST_F(RebalanceTest, MoveRightAfterACommitCarriesTheWrite) {
  // Commit() answers while the source is still flushing the COMMIT record.
  // The commit keeps its tenant pin until that flush is acked, so the
  // move's freeze drains it and the target gets the write.
  BuildWal("fresh", 2, {}, /*sync_delay_us=*/300'000);
  SetUpCounters("hot", /*machine=*/0, /*rows=*/4);
  auto conn = controller_->Connect("hot");
  ASSERT_TRUE(conn->Execute("UPDATE counters SET v = 5 WHERE id = 2").ok());
  EXPECT_EQ(controller_->tenant_catalog()->PinCount("hot"), 1)
      << "phase 2 should still hold the pin";
  ReplicaBuilder migrator(controller_.get());
  Status migrated = migrator.Migrate(MakePlan("hot", 0, 1));
  ASSERT_TRUE(migrated.ok()) << migrated.ToString();
  EXPECT_EQ(controller_->ReplicasOf("hot"), std::vector<int>{1});
  EXPECT_EQ(CounterValue(/*machine=*/1, "hot", 2), 5);
  auto read = conn->Execute("SELECT v FROM counters WHERE id = 2");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->at(0, 0).AsInt(), 5);
}

TEST_F(RebalanceTest, NulByteStringShipsWholeInTheDelta) {
  BuildWal("nul", 2);
  SetUpCounters("hot", /*machine=*/0, /*rows=*/4);
  ASSERT_TRUE(controller_
                  ->ExecuteDdl("hot",
                               "CREATE TABLE notes (id INT PRIMARY KEY, "
                               "body VARCHAR)")
                  .ok());
  const std::string body("ab\0cd", 5);
  // The write commits after the move has probed the source's WAL frontier
  // and before its first dump (held back until then), so a delta round
  // must carry it.
  std::atomic<bool> dumping{false};
  std::atomic<bool> written{false};
  std::atomic<bool> shipped{false};
  DeltaInstalls deltas;
  controller_->inproc_transport()->SetFaultHook(
      [&](int, const net::RpcRequest& request) {
        if (request.type == net::RpcType::kDumpTable) {
          dumping.store(true);
          while (!written.load()) std::this_thread::yield();
        }
        if (deltas.Match(request)) {
          for (const std::string& record : request.records) {
            if (record.find(body) != std::string::npos) shipped.store(true);
          }
        }
        return net::InProcTransport::Fault::kDeliver;
      });
  std::thread writer([&] {
    while (!dumping.load()) std::this_thread::yield();
    auto conn = controller_->Connect("hot");
    auto write =
        conn->Execute("INSERT INTO notes VALUES (1, ?)", {Value(body)});
    EXPECT_TRUE(write.ok()) << write.status().ToString();
    written.store(true);
  });
  ReplicaBuilder migrator(controller_.get());
  Status migrated = migrator.Migrate(MakePlan("hot", 0, 1));
  writer.join();
  controller_->inproc_transport()->SetFaultHook(nullptr);
  ASSERT_TRUE(migrated.ok()) << migrated.ToString();
  EXPECT_TRUE(shipped.load()) << "no delta round carried the write";
  auto row = controller_->machine(1)
                 ->engine()
                 ->GetDatabase("hot")
                 ->GetTable("notes")
                 ->Get(Value(int64_t{1}));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->values[1].AsString(), body);
  EXPECT_EQ(row->values[1].AsString().size(), 5u);
}

TEST_F(RebalanceTest, MalformedDeltaRecordIsRejectedAndTheMachineServes) {
  BuildWal("malformed", 2);
  SetUpCounters("hot", /*machine=*/1, /*rows=*/2);
  net::MachineClient* client = controller_->machine_client();
  // A real record of the tenant, to cut and extend below.
  uint64_t frontier = 0;
  auto records = client->WalDeltaRead(1, "hot", 0, &frontier);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_FALSE(records->empty());
  const std::string& real = records->back();
  for (const std::string& garbage :
       {std::string("INS\x1f" "abc"), std::string(),
        real.substr(0, real.size() - 1), real + '\0',
        std::string(1, '\x7f') + real.substr(1)}) {
    Status status = client->ApplyRecords(1, "hot", {garbage});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
  // The machine keeps serving.
  EXPECT_TRUE(client->Health(1).ok());
  auto conn = controller_->Connect("hot");
  auto read = conn->Execute("SELECT v FROM counters WHERE id = 1");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->at(0, 0).AsInt(), 0);
}

TEST_F(RebalanceTest, SourceLogForgetsTheMovedTenant) {
  BuildWal("forget", 2);
  SetUpCounters("hot", /*machine=*/0, /*rows=*/4);
  ReplicaBuilder migrator(controller_.get());
  Status migrated = migrator.Migrate(MakePlan("hot", 0, 1));
  ASSERT_TRUE(migrated.ok()) << migrated.ToString();
  ASSERT_TRUE(controller_->machine(0)->engine()->wal()->Sync().ok());
  Engine recovered("recovered-source");
  Status status = WriteAheadLog::Recover(wal_paths_[0], &recovered);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_FALSE(recovered.HasDatabase("hot"))
      << "the source's log still replays the moved tenant";
}

TEST_F(RebalanceTest, SnapshotReadStaysOnSourceUntilTxnEnd) {
  BuildWal("snap", 2);
  SetUpCounters("pinned", /*machine=*/0, 8);

  // Open a read-only snapshot before the migration starts. Its pin must
  // keep the cutover drained-out until the transaction commits, so every
  // read inside it stays on the source and stays consistent.
  auto reader = controller_->Connect("pinned");
  ASSERT_TRUE(reader->Begin(/*read_only=*/true).ok());
  auto first = reader->Execute("SELECT v FROM counters WHERE id = 3");
  ASSERT_TRUE(first.ok());
  int64_t seen = first->at(0, 0).AsInt();

  ReplicaBuilderOptions migrator_options;
  migrator_options.per_row_delay_us = 200;
  ReplicaBuilder migrator(controller_.get(), migrator_options);
  std::atomic<bool> done{false};
  Status migrated = Status::OK();
  std::thread mover([&] {
    migrated = migrator.Migrate(
        MakePlan("pinned", 0, 1));
    done.store(true);
  });

  // Wait until the migration is actually draining on our pin.
  while (!CopyOf("pinned").cutover) {
    ASSERT_FALSE(done.load()) << "migration finished around an open pin: "
                              << migrated.ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The swap must not have happened while we are pinned.
  EXPECT_EQ(controller_->ReplicasOf("pinned"), std::vector<int>{0});
  auto during = reader->Execute("SELECT v FROM counters WHERE id = 3");
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(during->at(0, 0).AsInt(), seen);

  ASSERT_TRUE(reader->Commit().ok());
  mover.join();
  ASSERT_TRUE(migrated.ok()) << migrated.ToString();
  EXPECT_EQ(controller_->ReplicasOf("pinned"), std::vector<int>{1});
}

TEST_F(RebalanceTest, DroppedDeltaRpcAbortsBackToSource) {
  ClusterControllerOptions options;
  options.rpc.call_timeout_us = 300'000;
  BuildWal("drop", 2, options);
  constexpr int64_t kRows = 8;
  SetUpCounters("hot", /*machine=*/0, kRows);

  // Lose every target-bound delta install (the bulk copy's goes through):
  // the first delta round that ships lines times out and the migration must
  // abort from its delta catch-up. (Only target-bound RPCs are dropped —
  // the controller's fail-stop model declares a machine that misses a
  // deadline failed, and failing the single-replica *source* would be a
  // machine failure, not a migration fault.)
  DeltaInstalls deltas;
  controller_->inproc_transport()->SetFaultHook(
      [&](int, const net::RpcRequest& request) {
        return deltas.Match(request)
                   ? net::InProcTransport::Fault::kDropRequest
                   : net::InProcTransport::Fault::kDeliver;
      });

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::array<std::atomic<int64_t>, kRows> commits{};
  std::thread writer([&] {
    auto conn = controller_->Connect("hot");
    int64_t iteration = 0;
    while (!stop.load()) {
      int64_t id = iteration++ % kRows;
      auto write = conn->Execute(
          "UPDATE counters SET v = v + 1 WHERE id = " + std::to_string(id));
      if (write.ok()) {
        commits[id].fetch_add(1);
      } else {
        failures.fetch_add(1);
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // Slow the bulk copy so the concurrent writer is guaranteed to commit
  // between the capability probe and the first delta round — the round then
  // has lines to ship and hits the dropped apply.
  ReplicaBuilderOptions migrator_options;
  migrator_options.per_row_delay_us = 1000;
  ReplicaBuilder migrator(controller_.get(), migrator_options);
  Status migrated = migrator.Migrate(MakePlan("hot", 0, 1));
  EXPECT_FALSE(migrated.ok());

  // Aborted cleanly back to the source: placement untouched, state machine
  // idle — and the writer never failed. (The silent target was declared
  // failed by the fail-stop deadline policy; that is the controller's
  // business, not the tenant's.)
  EXPECT_EQ(controller_->ReplicasOf("hot"), std::vector<int>{0});
  EXPECT_FALSE(CopyOf("hot").active);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop.store(true);
  writer.join();
  EXPECT_EQ(failures.load(), 0)
      << "writes failed while the migration aborted";

  // Heal and retry: with the fault gone and the target machine recovered,
  // the same plan completes and every committed increment survives the
  // move.
  controller_->inproc_transport()->SetFaultHook(nullptr);
  controller_->machine(1)->Recover();
  EXPECT_FALSE(controller_->machine(1)->engine()->HasDatabase("hot"));
  ASSERT_TRUE(migrator.Migrate(MakePlan("hot", 0, 1)).ok());
  EXPECT_EQ(controller_->ReplicasOf("hot"), std::vector<int>{1});
  for (int64_t id = 0; id < kRows; ++id) {
    EXPECT_EQ(CounterValue(/*machine=*/1, "hot", id), commits[id].load())
        << "row " << id;
  }
  // The recovered machine's log holds the second copy alone.
  ExpectLogReplaysEngine(controller_->machine(1)->engine().get());
}

TEST_F(RebalanceTest, PartitionedTargetAbortsCleanly) {
  ClusterControllerOptions options;
  options.rpc.call_timeout_us = 300'000;
  BuildWal("part", 2, options);
  SetUpCounters("hot", /*machine=*/0, 4);

  controller_->inproc_transport()->PartitionMachine(1);
  ReplicaBuilder migrator(controller_.get());
  Status migrated = migrator.Migrate(
      MakePlan("hot", 0, 1));
  EXPECT_FALSE(migrated.ok());
  EXPECT_EQ(controller_->ReplicasOf("hot"), std::vector<int>{0});
  EXPECT_FALSE(CopyOf("hot").active);

  // The tenant keeps serving on the source after the abort.
  auto conn = controller_->Connect("hot");
  EXPECT_TRUE(conn->Execute("UPDATE counters SET v = v + 1 WHERE id = 0").ok());

  // Heal the partition and recover the machine the fail-stop deadline
  // policy declared dead while it was unreachable.
  controller_->inproc_transport()->HealMachine(1);
  controller_->machine(1)->Recover();
  ASSERT_TRUE(migrator.Migrate(MakePlan("hot", 0, 1)).ok());
  EXPECT_EQ(controller_->ReplicasOf("hot"), std::vector<int>{1});
  EXPECT_EQ(CounterValue(/*machine=*/1, "hot", 0), 1);
  ExpectLogReplaysEngine(controller_->machine(1)->engine().get());
}

TEST_F(RebalanceTest, FrozenFallbackMovesWalLessTenant) {
  // Default machines have no WAL: the capability probe answers
  // kFailedPrecondition and the migrator must fall back to freeze-then-copy.
  BuildPlain(2);
  SetUpCounters("plain", /*machine=*/0, 4);
  auto conn = controller_->Connect("plain");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        conn->Execute("UPDATE counters SET v = v + 1 WHERE id = " +
                      std::to_string(i))
            .ok());
  }

  ReplicaBuilder migrator(controller_.get());
  ASSERT_TRUE(migrator
                  .Migrate(MakePlan("plain", 0, 1))
                  .ok());
  EXPECT_EQ(controller_->ReplicasOf("plain"), std::vector<int>{1});
  EXPECT_FALSE(CopyOf("plain").active);
  EXPECT_FALSE(controller_->machine(0)->engine()->HasDatabase("plain"));
  for (int64_t id = 0; id < 4; ++id) {
    EXPECT_EQ(CounterValue(/*machine=*/1, "plain", id), 1) << "row " << id;
  }
  // And the moved tenant still serves.
  auto read = conn->Execute("SELECT v FROM counters WHERE id = 2");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->at(0, 0).AsInt(), 1);
}

// A tenant that moves away and back must not meet its old version chains on
// the machine it left: a snapshot read there answers from the chain, so a
// chain that survived the source drop would serve the pre-move value.
TEST_F(RebalanceTest, SnapshotReadAfterMigrationRoundTrip) {
  BuildPlain(2);
  SetUpCounters("trip", /*machine=*/0, 0);
  auto conn = controller_->Connect("trip");
  ASSERT_TRUE(
      conn->Execute("INSERT INTO counters (id, v) VALUES (1, 1)").ok());

  ReplicaBuilder migrator(controller_.get());
  ASSERT_TRUE(migrator.Migrate(MakePlan("trip", 0, 1)).ok());
  ASSERT_TRUE(conn->Execute("UPDATE counters SET v = 2 WHERE id = 1").ok());
  ASSERT_TRUE(migrator.Migrate(MakePlan("trip", 1, 0)).ok());
  ASSERT_EQ(controller_->ReplicasOf("trip"), std::vector<int>{0});

  auto locked = conn->Execute("SELECT v FROM counters WHERE id = 1");
  ASSERT_TRUE(locked.ok()) << locked.status().ToString();
  EXPECT_EQ(locked->at(0, 0).AsInt(), 2);
  ASSERT_TRUE(conn->Begin(/*read_only=*/true).ok());
  auto snapshot = conn->Execute("SELECT v FROM counters WHERE id = 1");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->at(0, 0).AsInt(), 2);
  ASSERT_TRUE(conn->Commit().ok());
}

TEST_F(RebalanceTest, MigrateRefusesNonsensePlans) {
  BuildPlain(2);
  SetUpCounters("db", /*machine=*/0, 2);
  ReplicaBuilder migrator(controller_.get());
  // Source does not host the tenant.
  EXPECT_EQ(migrator
                .Migrate(MakePlan("db", 1, 0))
                .code(),
            StatusCode::kFailedPrecondition);
  // Target already hosts the tenant.
  EXPECT_EQ(migrator
                .Migrate(MakePlan("db", 0, 0))
                .code(),
            StatusCode::kFailedPrecondition);
  // Unknown tenant.
  EXPECT_FALSE(migrator
                   .Migrate(MakePlan("ghost", 0, 1))
                   .ok());
  EXPECT_EQ(controller_->ReplicasOf("db"), std::vector<int>{0});
}

TEST_F(RebalanceTest, RecoveryRefusedDuringMigration) {
  BuildWal("refuse", 3);
  constexpr int64_t kRows = 64;
  SetUpCounters("hot", /*machine=*/0, kRows);
  auto conn = controller_->Connect("hot");
  for (int64_t id = 0; id < kRows; id += 8) {
    ASSERT_TRUE(conn->Execute("UPDATE counters SET v = " +
                              std::to_string(id) +
                              " WHERE id = " + std::to_string(id))
                    .ok());
  }

  ReplicaBuilderOptions migrator_options;
  migrator_options.per_row_delay_us = 2000;  // keep the bulk copy running
  ReplicaBuilder migrator(controller_.get(), migrator_options);
  std::atomic<bool> done{false};
  Status migrated = Status::OK();
  std::thread mover([&] {
    migrated = migrator.Migrate(MakePlan("hot", 0, 1));
    done.store(true);
  });
  while (!CopyOf("hot").active) {
    ASSERT_FALSE(done.load()) << "migration ended before it was observed: "
                              << migrated.ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // One claim for both kinds of copy: the migration holds it.
  ReplicaBuilder recovery(controller_.get());
  RecoveryResult refused = recovery.RecoverDatabase("hot", 2);
  EXPECT_EQ(refused.status.code(), StatusCode::kFailedPrecondition)
      << refused.status.ToString();

  mover.join();
  ASSERT_TRUE(migrated.ok()) << migrated.ToString();
  EXPECT_EQ(controller_->ReplicasOf("hot"), std::vector<int>{1});
  EXPECT_FALSE(controller_->machine(2)->engine()->HasDatabase("hot"));
  for (int64_t id = 0; id < kRows; ++id) {
    EXPECT_EQ(CounterValue(/*machine=*/1, "hot", id), id % 8 == 0 ? id : 0)
        << "row " << id;
  }
}

TEST_F(RebalanceTest, MigrationPutsTargetInSourceSlot) {
  BuildWal("slot", 3);
  ASSERT_TRUE(controller_->CreateDatabaseOn("pair", {0, 1}).ok());
  ASSERT_TRUE(controller_
                  ->ExecuteDdl("pair",
                               "CREATE TABLE counters (id INT PRIMARY KEY, "
                               "v INT)")
                  .ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 8; ++i) rows.push_back({Value(i), Value(i)});
  ASSERT_TRUE(controller_->BulkLoad("pair", "counters", rows).ok());

  // Option-1 reads go to the replica in the primary slot: machine 0 here.
  auto conn = controller_->Connect("pair");
  auto commits_on = [&](int machine) {
    return controller_->machine(machine)->engine()->committed_count();
  };
  auto served_reads = [&](int machine) {
    int64_t before = commits_on(machine);
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(conn->Execute("SELECT v FROM counters WHERE id = 1").ok());
    }
    return commits_on(machine) - before;
  };
  EXPECT_EQ(served_reads(0), 3);

  ReplicaBuilder migrator(controller_.get());
  ASSERT_TRUE(migrator.Migrate(MakePlan("pair", 0, 2)).ok());
  // The target took the source's slot, so Option-1 reads follow it.
  EXPECT_EQ(controller_->ReplicasOf("pair"), (std::vector<int>{2, 1}));
  EXPECT_EQ(served_reads(2), 3);
  for (int64_t id = 0; id < 8; ++id) {
    EXPECT_EQ(CounterValue(/*machine=*/2, "pair", id), id) << "row " << id;
  }
}

TEST_F(RebalanceTest, QuotaFollowsMigratedTenant) {
  BuildPlain(2);
  SetUpCounters("capped", /*machine=*/0, 4);
  qos::QuotaSpec spec;
  spec.rate_tps = 50;
  spec.burst = 5;
  spec.weight = 3;
  ASSERT_TRUE(controller_->SetDatabaseQuota("capped", spec).ok());
  ReplicaBuilder migrator(controller_.get());
  ASSERT_TRUE(migrator.Migrate(MakePlan("capped", 0, 1)).ok());
  qos::QuotaSpec pushed = controller_->machine(1)->GetQuota("capped");
  EXPECT_DOUBLE_EQ(pushed.rate_tps, 50);
  EXPECT_DOUBLE_EQ(pushed.burst, 5);
  EXPECT_EQ(pushed.weight, 3);
}

// --- Control loop -----------------------------------------------------

TEST_F(RebalanceTest, TickSustainsThenMigratesThenCoolsDown) {
  BuildPlain(2);
  SetUpCounters("hot", /*machine=*/0, 4);
  SetUpCounters("cold", /*machine=*/0, 4);

  // Real traffic feeds the LoadMonitor: "hot" commits ~4x as often, so it
  // is the largest-demand tenant on the (only) loaded machine.
  auto hot_conn = controller_->Connect("hot");
  auto cold_conn = controller_->Connect("cold");
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        hot_conn->Execute("UPDATE counters SET v = v + 1 WHERE id = 1").ok());
    if (i % 4 == 0) {
      ASSERT_TRUE(
          cold_conn->Execute("UPDATE counters SET v = v + 1 WHERE id = 1")
              .ok());
    }
  }

  rebalance::RebalancerOptions options;
  options.min_utilization = 1e-9;  // measured demand is tiny in a unit test
  options.imbalance_ratio = 1.2;
  options.sustain_ticks = 2;
  options.cooldown_ticks = 3;
  rebalance::Rebalancer rebalancer(controller_.get(), options);

  // Tick 1: imbalanced, but hysteresis holds the trigger.
  ASSERT_TRUE(rebalancer.Tick().ok());
  EXPECT_EQ(rebalancer.migrations_executed(), 0);
  EXPECT_EQ(controller_->ReplicasOf("hot"), std::vector<int>{0});

  // Tick 2: sustained — plan and migrate the hot tenant off machine 0.
  ASSERT_TRUE(rebalancer.Tick().ok());
  EXPECT_EQ(rebalancer.migrations_executed(), 1);
  EXPECT_EQ(controller_->ReplicasOf("hot"), std::vector<int>{1});
  EXPECT_EQ(controller_->ReplicasOf("cold"), std::vector<int>{0});

  // Cooldown: no second move while the last one settles, no matter how the
  // next windows look.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rebalancer.Tick().ok());
  EXPECT_EQ(rebalancer.migrations_executed(), 1);

  // The moved tenant serves from its new home.
  auto read = hot_conn->Execute("SELECT v FROM counters WHERE id = 1");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->at(0, 0).AsInt(), 40);
}

TEST_F(RebalanceTest, BalancedClusterNeverTriggersTick) {
  BuildPlain(2);
  SetUpCounters("a", /*machine=*/0, 2);
  SetUpCounters("b", /*machine=*/1, 2);
  auto conn_a = controller_->Connect("a");
  auto conn_b = controller_->Connect("b");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        conn_a->Execute("UPDATE counters SET v = v + 1 WHERE id = 0").ok());
    ASSERT_TRUE(
        conn_b->Execute("UPDATE counters SET v = v + 1 WHERE id = 0").ok());
  }
  rebalance::RebalancerOptions options;
  options.min_utilization = 1e-9;
  options.sustain_ticks = 1;
  rebalance::Rebalancer rebalancer(controller_.get(), options);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(rebalancer.Tick().ok());
  EXPECT_EQ(rebalancer.migrations_executed(), 0);
  EXPECT_EQ(controller_->ReplicasOf("a"), std::vector<int>{0});
  EXPECT_EQ(controller_->ReplicasOf("b"), std::vector<int>{1});
}

TEST_F(RebalanceTest, BackgroundLoopStartsTicksAndStops) {
  BuildPlain(2);
  rebalance::RebalancerOptions options;
  options.interval_us = 5'000;
  rebalance::Rebalancer rebalancer(controller_.get(), options);
  rebalancer.Start();
  int64_t waited_ms = 0;
  while (rebalancer.ticks() == 0 && waited_ms < 2000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    waited_ms += 5;
  }
  rebalancer.Stop();
  EXPECT_GT(rebalancer.ticks(), 0);
  int64_t after_stop = rebalancer.ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(rebalancer.ticks(), after_stop);
}

}  // namespace
}  // namespace mtdb
