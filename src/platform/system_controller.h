#ifndef MTDB_PLATFORM_SYSTEM_CONTROLLER_H_
#define MTDB_PLATFORM_SYSTEM_CONTROLLER_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/platform/colo.h"
#include "src/platform/mutex.h"

namespace mtdb::platform {

class SystemController;

// A platform-level client connection. Wraps the hosting cluster's
// Connection and, for databases with a disaster-recovery colo, captures
// committed write statements so the system's asynchronous replicator can
// ship them to the remote colo (Section 2: strong guarantees inside a colo
// via synchronous replication, weaker guarantees across colos via
// asynchronous replication).
class PlatformConnection {
 public:
  Status Begin();
  Result<sql::QueryResult> Execute(const std::string& sql,
                                   const std::vector<Value>& params = {});
  Status Commit();
  Status Abort();
  bool in_transaction() const { return inner_->in_transaction(); }
  const std::string& colo_name() const { return colo_name_; }

 private:
  friend class SystemController;
  PlatformConnection(SystemController* system, std::string db_name,
                     std::string colo_name,
                     std::unique_ptr<Connection> inner, bool capture_writes);

  struct BufferedWrite {
    std::string sql;
    std::vector<Value> params;
  };

  SystemController* system_;
  std::string db_name_;
  std::string colo_name_;
  std::unique_ptr<Connection> inner_;
  bool capture_writes_;
  std::vector<BufferedWrite> txn_writes_;
};

struct SystemOptions {
  // Simulated shipping delay for cross-colo replication.
  int64_t replication_lag_ms = 20;
  int default_replicas_per_colo = 2;
};

// The top of the Section 2 hierarchy: a fault-tolerant system controller
// spanning geographically distributed colos. Routes connection requests to
// the nearest alive colo hosting the database (primary by default), creates
// databases with a primary and an optional disaster-recovery colo, and runs
// the asynchronous cross-colo replication shipper.
class SystemController {
 public:
  explicit SystemController(SystemOptions options = {});
  ~SystemController();

  SystemController(const SystemController&) = delete;
  SystemController& operator=(const SystemController&) = delete;

  int AddColo(ColoOptions options);
  Colo* colo(int id) const;
  Colo* colo(const std::string& name) const;
  size_t colo_count() const;

  // Creates the database in the colo nearest to the owner, plus an
  // asynchronously replicated copy in the next-nearest colo when available.
  Status CreateDatabase(const std::string& db_name, GeoPoint owner_location,
                        int replicas_per_colo = 0);
  // Name of the primary / disaster-recovery colo for a database.
  Result<std::string> PrimaryColoOf(const std::string& db_name) const;
  Result<std::string> SecondaryColoOf(const std::string& db_name) const;

  // Routes to the primary colo; if it is down, fails over to the secondary
  // (weaker guarantee: writes shipped but not yet applied are lost).
  Result<std::unique_ptr<PlatformConnection>> Connect(
      const std::string& db_name, GeoPoint client_location);

  // Promotes the secondary colo to primary (disaster recovery).
  Status FailoverDatabase(const std::string& db_name);

  // Blocks until the replication queue is empty (tests/benches).
  void DrainReplication();
  int64_t shipped_transactions() const { return shipped_.load(); }

 private:
  friend class PlatformConnection;

  struct DbRoute {
    std::string primary_colo;
    std::string secondary_colo;  // empty if none
  };

  struct ShipTask {
    std::string db_name;
    std::string target_colo;
    std::vector<PlatformConnection::BufferedWrite> writes;
  };

  // Called by PlatformConnection on commit.
  void EnqueueShipment(const std::string& db_name,
                       std::vector<PlatformConnection::BufferedWrite> writes);
  void ShipperLoop();

  SystemOptions options_;
  mutable platform::Mutex mu_{"platform/SystemController::mu"};
  std::vector<std::unique_ptr<Colo>> colos_ MTDB_GUARDED_BY(mu_);
  // Bound: one route per database the scenario creates. A simulation
  // fixture, not production metadata: it lives as long as the scenario.
  // mtdblint: allow(tenant-map)
  std::map<std::string, DbRoute> routes_ MTDB_GUARDED_BY(mu_);

  platform::Mutex queue_mu_{"platform/SystemController::queue_mu"};
  platform::CondVar queue_cv_;
  std::deque<ShipTask> queue_ MTDB_GUARDED_BY(queue_mu_);
  bool stop_ MTDB_GUARDED_BY(queue_mu_) = false;
  int64_t in_flight_ MTDB_GUARDED_BY(queue_mu_) = 0;
  std::atomic<int64_t> shipped_{0};
  std::thread shipper_;
};

}  // namespace mtdb::platform

#endif  // MTDB_PLATFORM_SYSTEM_CONTROLLER_H_
