// mtdbd: one mtdb machine as a standalone daemon.
//
// Server mode:
//   mtdbd --port 7420
// binds a TcpServer on the port (0 = kernel-assigned; the chosen port is
// printed), serves the machine's RPC surface until SIGINT/SIGTERM, then
// shuts down cleanly.
//
// Smoke-client mode:
//   mtdbd --client HOST:PORT
// connects a ClusterController over a TcpTransport to one running mtdbd,
// creates a database, loads a tiny TPC-W-style item table, runs one
// read-modify-write transaction and one snapshot read end to end, then
// drops the database, re-creates it with fresh stock and checks that a
// snapshot read sees the fresh stock. Prints "SMOKE OK" and exits 0 on
// success. Used by tools/mtdbd_smoke.sh and the CI smoke job.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/cluster/cluster_controller.h"
#include "src/cluster/machine.h"
#include "src/cluster/replica_builder.h"
#include "src/net/machine_service.h"
#include "src/net/tcp_transport.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

int RunServer(uint16_t port) {
  // Run with the group-commit WAL enabled so smoke traffic exercises the
  // durability pipeline (mtdbd_smoke.sh asserts mtdb_wal_* metrics moved).
  mtdb::MachineOptions machine_options;
  machine_options.engine_options.wal_path =
      "/tmp/mtdbd_wal." + std::to_string(static_cast<long long>(getpid()));
  mtdb::Machine machine(/*id=*/0, machine_options);
  // Register the migration series up front so mtdbstat --watch migrations
  // shows them at zero on an idle daemon instead of printing nothing.
  mtdb::RegisterReplicaMetrics();
  mtdb::net::MachineService service(&machine);
  mtdb::net::TcpServer server(&service);
  mtdb::Status status = server.Start(port);
  if (!status.ok()) {
    std::fprintf(stderr, "mtdbd: %s\n", status.ToString().c_str());
    return 1;
  }
  // The smoke script scrapes this line for the bound port; keep the format.
  std::printf("mtdbd listening on port %u\n", server.port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  std::remove(machine_options.engine_options.wal_path.c_str());
  std::printf("mtdbd stopped\n");
  return 0;
}

int RunSmokeClient(const std::string& host, uint16_t port) {
  mtdb::net::TcpTransport transport;
  transport.AddEndpoint(/*machine_id=*/0, host, port);

  mtdb::ClusterControllerOptions options;
  options.transport = &transport;
  options.rpc.call_timeout_us = 10'000'000;
  mtdb::ClusterController controller(options);
  // The controller's routing table needs a machine entry; the machine's
  // engine work happens in the remote mtdbd, reached via the transport.
  controller.AddMachine();

  auto fail = [](const mtdb::Status& status, const char* what) {
    std::fprintf(stderr, "smoke: %s: %s\n", what, status.ToString().c_str());
    return 1;
  };

  // The tenant: a tiny item table, every item stocked at 100.
  auto create_shop = [&controller] {
    mtdb::Status status = controller.CreateDatabaseOn("shop", {0});
    if (!status.ok()) return status;
    status = controller.ExecuteDdl(
        "shop",
        "CREATE TABLE item (i_id INT PRIMARY KEY, i_title TEXT, "
        "i_stock INT)");
    if (!status.ok()) return status;
    std::vector<mtdb::Row> items;
    for (int64_t i = 1; i <= 10; ++i) {
      items.push_back({mtdb::Value(i),
                       mtdb::Value("item-" + std::to_string(i)),
                       mtdb::Value(int64_t{100})});
    }
    return controller.BulkLoad("shop", "item", items);
  };
  mtdb::Status status = create_shop();
  if (!status.ok()) return fail(status, "create shop");

  // One TPC-W-style buy-confirm: read the stock, decrement it, commit.
  auto conn = controller.Connect("shop");
  status = conn->Begin();
  if (!status.ok()) return fail(status, "begin");
  auto read = conn->Execute("SELECT i_stock FROM item WHERE i_id = ?",
                            {mtdb::Value(int64_t{7})});
  if (!read.ok()) return fail(read.status(), "read stock");
  if (read->rows.size() != 1) {
    std::fprintf(stderr, "smoke: expected 1 row, got %zu\n",
                 read->rows.size());
    return 1;
  }
  auto write = conn->Execute(
      "UPDATE item SET i_stock = i_stock - 1 WHERE i_id = ?",
      {mtdb::Value(int64_t{7})});
  if (!write.ok()) return fail(write.status(), "decrement stock");
  status = conn->Commit();
  if (!status.ok()) return fail(status, "commit");

  // Verify the committed write through a fresh autocommit read.
  auto check = conn->Execute("SELECT i_stock FROM item WHERE i_id = ?",
                             {mtdb::Value(int64_t{7})});
  if (!check.ok()) return fail(check.status(), "verify");
  if (check->rows.size() != 1 || check->rows[0][0] != mtdb::Value(int64_t{99})) {
    std::fprintf(stderr, "smoke: stock not decremented as committed\n");
    return 1;
  }

  // A read-only snapshot transaction over the same wire: the first read
  // carries the begin with the read_only flag, the reads are MVCC snapshot
  // reads (bumping mtdb_mvcc_snapshot_reads_total, asserted by
  // mtdbd_smoke.sh), and the committed decrement must be visible in the
  // snapshot. Every transaction here starts with a read, so the daemon
  // serves no kBegin (also asserted by mtdbd_smoke.sh).
  status = conn->Begin(/*read_only=*/true);
  if (!status.ok()) return fail(status, "begin read-only");
  auto snap1 = conn->Execute("SELECT i_stock FROM item WHERE i_id = ?",
                             {mtdb::Value(int64_t{7})});
  if (!snap1.ok()) return fail(snap1.status(), "snapshot read 1");
  auto snap2 = conn->Execute("SELECT i_stock FROM item WHERE i_id = ?",
                             {mtdb::Value(int64_t{3})});
  if (!snap2.ok()) return fail(snap2.status(), "snapshot read 2");
  if (snap1->rows.size() != 1 ||
      snap1->rows[0][0] != mtdb::Value(int64_t{99}) ||
      snap2->rows.size() != 1 ||
      snap2->rows[0][0] != mtdb::Value(int64_t{100})) {
    std::fprintf(stderr, "smoke: snapshot read returned wrong stock\n");
    return 1;
  }
  status = conn->Commit();
  if (!status.ok()) return fail(status, "commit read-only");

  // Teardown: kDropDatabase alone must clear the daemon's state for the
  // tenant. Re-create it with fresh stock; a snapshot read must then see
  // item 7 at 100, not the dropped tenant's 99.
  status = controller.DropDatabase("shop");
  if (!status.ok()) return fail(status, "drop database");
  status = create_shop();
  if (!status.ok()) return fail(status, "re-create shop");
  auto fresh = controller.Connect("shop");
  status = fresh->Begin(/*read_only=*/true);
  if (!status.ok()) return fail(status, "begin read-only after re-create");
  auto restocked = fresh->Execute("SELECT i_stock FROM item WHERE i_id = ?",
                                  {mtdb::Value(int64_t{7})});
  if (!restocked.ok()) return fail(restocked.status(), "read re-created");
  if (restocked->rows.size() != 1 ||
      restocked->rows[0][0] != mtdb::Value(int64_t{100})) {
    std::fprintf(stderr,
                 "smoke: re-created tenant read the dropped tenant's stock\n");
    return 1;
  }
  status = fresh->Commit();
  if (!status.ok()) return fail(status, "commit read-only after re-create");

  std::printf("SMOKE OK\n");
  return 0;
}

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port PORT        start a machine daemon\n"
               "       %s --client HOST:PORT run the smoke client\n",
               argv0, argv0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--port") == 0) {
    return RunServer(static_cast<uint16_t>(std::atoi(argv[2])));
  }
  if (argc == 3 && std::strcmp(argv[1], "--client") == 0) {
    std::string target = argv[2];
    size_t colon = target.rfind(':');
    if (colon == std::string::npos) {
      Usage(argv[0]);
      return 2;
    }
    return RunSmokeClient(target.substr(0, colon),
                          static_cast<uint16_t>(
                              std::atoi(target.c_str() + colon + 1)));
  }
  Usage(argv[0]);
  return 2;
}
