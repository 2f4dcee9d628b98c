// Ablation: the engine-side 2PC optimization of releasing read locks at
// PREPARE is the mechanism behind the Table 1 anomaly. With the optimization
// disabled, even the aggressive controller under Option 3 becomes
// serializable (at the cost of cross-replica blocking/aborts).
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "src/cluster/cluster_controller.h"

namespace {

using namespace mtdb;

struct RunOutcome {
  bool serializable = true;
  int committed = 0;
};

RunOutcome RunOnce(bool release_read_locks_on_prepare, uint64_t round) {
  ClusterControllerOptions options;
  options.read_option = ReadRoutingOption::kPerOperation;
  options.write_policy = WriteAckPolicy::kAggressive;
  ClusterController controller(options);
  MachineOptions machine_options;
  machine_options.engine_options.record_history = true;
  machine_options.engine_options.release_read_locks_on_prepare =
      release_read_locks_on_prepare;
  machine_options.engine_options.lock_options.lock_timeout_us = 300'000;
  controller.AddMachine(machine_options);
  controller.AddMachine(machine_options);
  (void)controller.CreateDatabaseOn("db", {0, 1});
  (void)controller.ExecuteDdl(
      "db", "CREATE TABLE kv (k VARCHAR(4) PRIMARY KEY, v INT)");
  (void)controller.BulkLoad("db", "kv",
                            {{Value("x"), Value(int64_t{0})},
                             {Value("y"), Value(int64_t{0})}});
  int slow_for_t1 = static_cast<int>(round % 2);
  controller.SetLatencyInjector(
      [slow_for_t1](const std::string& label, bool is_write,
                    int machine_id) -> int64_t {
        if (!is_write) return 0;
        if (label == "T1" && machine_id == slow_for_t1) return 60'000;
        if (label == "T2" && machine_id == 1 - slow_for_t1) return 60'000;
        return 0;
      });

  auto conn1 = controller.Connect("db");
  auto conn2 = controller.Connect("db");
  conn1->SetLabel("T1");
  conn2->SetLabel("T2");
  auto run_txn = [](Connection* conn, const char* read_key,
                    const char* write_key) {
    if (!conn->Begin().ok()) return false;
    if (!conn->Execute(std::string("SELECT v FROM kv WHERE k = '") +
                       read_key + "'")
             .ok()) {
      if (conn->in_transaction()) (void)conn->Abort();
      return false;
    }
    if (!conn->Execute(std::string("UPDATE kv SET v = v + 1 WHERE k = '") +
                       write_key + "'")
             .ok()) {
      if (conn->in_transaction()) (void)conn->Abort();
      return false;
    }
    return conn->Commit().ok();
  };
  bool c1 = false, c2 = false;
  std::thread t1([&] { c1 = run_txn(conn1.get(), "x", "y"); });
  std::thread t2([&] { c2 = run_txn(conn2.get(), "y", "x"); });
  t1.join();
  t2.join();
  RunOutcome outcome;
  outcome.serializable = controller.CheckClusterSerializability().serializable;
  outcome.committed = (c1 ? 1 : 0) + (c2 ? 1 : 0);
  return outcome;
}

}  // namespace

int main() {
  using namespace mtdb::bench;
  PrintHeader("Ablation",
              "Read-lock release at PREPARE (aggressive controller, "
              "Option 3)");
  const int rounds =
      static_cast<int>(std::max<int64_t>(2, BenchMs(1200) / 100));
  PrintRow({"engine 2PC mode", "violations", "avg committed/round"});
  for (bool release : {true, false}) {
    int violations = 0;
    int committed = 0;
    for (int r = 0; r < rounds; ++r) {
      RunOutcome outcome = RunOnce(release, static_cast<uint64_t>(r));
      if (!outcome.serializable) ++violations;
      committed += outcome.committed;
    }
    PrintRow({release ? "release S locks at PREPARE (MySQL-like)"
                      : "hold S locks until COMMIT (strict)",
              std::to_string(violations) + "/" + std::to_string(rounds),
              Fmt(static_cast<double>(committed) / rounds, 2)});
  }
  std::printf(
      "expected shape: violations only occur with the PREPARE-time release\n"
      "optimization; holding read locks trades them for blocking/aborts.\n");
  return 0;
}
