#ifndef MTDB_QOS_FAIR_QUEUE_H_
#define MTDB_QOS_FAIR_QUEUE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/platform/mutex.h"
#include "src/obs/metrics.h"
#include "src/qos/qos.h"

namespace mtdb::qos {

// Bounded worker-pool scheduler that replaces the plain counting-semaphore
// handoff on each machine. `permits` models the machine's query-processing
// parallelism (cores); waiters beyond that are parked in per-database FIFO
// queues and granted slots by weighted deficit round robin, so a burst from
// one tenant cannot monopolize the pool — every backlogged database gets
// slots in proportion to its weight (default equal).
//
// Ordering guarantee: within one database, slots are granted in enqueue
// order (each tenant queue is a FIFO), so a per-session operation stream
// that enters in order executes in order. Enter() returns the enqueue
// sequence number (assigned under the queue lock) so tests can assert this.
class WeightedFairQueue {
 public:
  enum class Policy {
    kFifo,          // single global FIFO — the pre-QoS semaphore behavior
    kWeightedFair,  // per-database WDRR (the default)
  };

  struct Options {
    int permits = 1;
    Policy policy = Policy::kWeightedFair;
    // Label for the depth gauge / wait histogram; empty disables metrics.
    std::string machine{};
  };

  explicit WeightedFairQueue(const Options& options);

  // Blocks until a worker slot is granted. Returns the enqueue sequence
  // number assigned atomically with queue insertion.
  uint64_t Enter(const std::string& db);

  // Returns the slot taken by a previous Enter().
  void Leave();

  // Sets the WDRR weight for `db` (clamped to >= 1). Takes effect at the
  // database's next replenish round.
  void SetWeight(const std::string& db, int weight);

  // Databases holding scheduler state: those with parked waiters or a
  // non-default weight.
  size_t tenant_count() const;

  // Number of waiters currently parked (excludes granted slots).
  size_t queue_depth() const;

  // Slots currently handed out (<= permits).
  int in_use() const;

  // RAII slot holder; tolerates a null queue (unbounded machine).
  class Guard {
   public:
    Guard(WeightedFairQueue* queue, const std::string& db) : queue_(queue) {
      if (queue_ != nullptr) queue_->Enter(db);
    }
    ~Guard() {
      if (queue_ != nullptr) queue_->Leave();
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    WeightedFairQueue* queue_;
  };

 private:
  // Weight of a database that kSetQuota never weighted.
  static constexpr int kDefaultWeight = 1;

  struct Waiter {
    uint64_t seq = 0;
    bool granted = false;
  };
  struct Tenant {
    std::deque<Waiter*> waiters;
    int weight = kDefaultWeight;
    int deficit = 0;
  };

  // Hands out free slots to parked waiters; called with mu_ held. Returns
  // true if any waiter was granted (caller must notify).
  bool GrantLocked() MTDB_REQUIRES(mu_);

  const Options options_;
  mutable platform::Mutex mu_{"qos/WeightedFairQueue::mu"};
  platform::CondVar cv_;
  // Bound: the databases with parked waiters, plus one entry per explicit
  // weight the controller pushed here. A default-weight entry goes when its
  // queue drains. mtdblint: allow(tenant-map)
  std::map<std::string, Tenant> tenants_ MTDB_GUARDED_BY(mu_);
  // Round-robin ring of database names with parked waiters.
  std::vector<std::string> active_ MTDB_GUARDED_BY(mu_);
  size_t rr_ MTDB_GUARDED_BY(mu_) = 0;
  // True while the tenant at active_[rr_] holds unspent deficit from its
  // current visit (its replenish must not repeat when slots trickle back).
  bool mid_visit_ MTDB_GUARDED_BY(mu_) = false;
  int free_ MTDB_GUARDED_BY(mu_);
  int in_use_ MTDB_GUARDED_BY(mu_) = 0;
  size_t waiting_ MTDB_GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ MTDB_GUARDED_BY(mu_) = 0;

  obs::Gauge* m_depth_ = nullptr;
  Histogram* m_wait_us_ = nullptr;
};

}  // namespace mtdb::qos

#endif  // MTDB_QOS_FAIR_QUEUE_H_
