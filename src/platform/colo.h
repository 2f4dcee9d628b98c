#ifndef MTDB_PLATFORM_COLO_H_
#define MTDB_PLATFORM_COLO_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster_controller.h"
#include "src/platform/mutex.h"

namespace mtdb::platform {

// A geographic coordinate, used for proximity-based connection routing.
struct GeoPoint {
  double latitude = 0;
  double longitude = 0;
};

// Great-circle distance (haversine), kilometres.
double GeoDistanceKm(const GeoPoint& a, const GeoPoint& b);

struct ColoOptions {
  std::string name = "colo";
  GeoPoint location;
  // Machines per newly created cluster.
  int machines_per_cluster = 4;
  // Machines initially in the colo's free pool.
  int free_pool_machines = 4;
  ClusterControllerOptions cluster_options;
  MachineOptions machine_options;
};

// One colo (Section 2): a set of machine clusters coordinated by a colo
// controller, which routes connections to the cluster hosting each database
// and manages a pool of free machines that it grants to clusters as their
// workload grows. The colo controller holds no connection state, so its
// fault tolerance is a light-weight hot standby (modeled by Fail/Recover
// flipping availability without losing routing state).
class Colo {
 public:
  explicit Colo(ColoOptions options);

  Colo(const Colo&) = delete;
  Colo& operator=(const Colo&) = delete;

  const std::string& name() const { return options_.name; }
  const GeoPoint& location() const { return options_.location; }

  // --- Cluster management (colo controller) ---
  int AddCluster();
  ClusterController* cluster(int id) const;
  size_t cluster_count() const;

  // Places a database on the least-loaded cluster (creating the first
  // cluster on demand), pulling machines from the free pool into the cluster
  // when it cannot satisfy the replica count.
  Status CreateDatabase(const std::string& db_name, int num_replicas);
  // The cluster hosting the database.
  Result<ClusterController*> ClusterFor(const std::string& db_name) const;
  bool HostsDatabase(const std::string& db_name) const;
  std::vector<std::string> DatabaseNames() const;

  // Routes a client connection to the hosting cluster's controller.
  Result<std::unique_ptr<Connection>> Connect(const std::string& db_name);

  // --- Free machine pool ---
  int free_machines() const { return free_pool_.load(); }
  // Moves one free-pool machine into the given cluster. Fails when the pool
  // is empty.
  Status GrantMachine(int cluster_id);

  // --- Disaster switch ---
  bool failed() const { return failed_.load(); }
  void Fail() { failed_.store(true); }
  void Recover() { failed_.store(false); }

 private:
  ColoOptions options_;
  mutable platform::Mutex mu_{"platform/Colo::mu"};
  std::vector<std::unique_ptr<ClusterController>> clusters_
      MTDB_GUARDED_BY(mu_);
  // Bound: one int per database placed in this colo, the placement fact
  // itself (the paper's Figure 1 routing tier); it has no smaller durable
  // form and lives as long as the colo. mtdblint: allow(tenant-map)
  std::map<std::string, int> db_to_cluster_ MTDB_GUARDED_BY(mu_);
  std::atomic<int> free_pool_;
  std::atomic<bool> failed_{false};
};

}  // namespace mtdb::platform

#endif  // MTDB_PLATFORM_COLO_H_
