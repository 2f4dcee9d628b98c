#ifndef MTDB_CLUSTER_MACHINE_H_
#define MTDB_CLUSTER_MACHINE_H_

#include <atomic>
#include <memory>
#include <string>

#include "src/platform/mutex.h"
#include "src/common/resource.h"
#include "src/obs/metrics.h"
#include "src/qos/admission.h"
#include "src/qos/fair_queue.h"
#include "src/qos/qos.h"
#include "src/storage/engine.h"

namespace mtdb {

struct MachineOptions {
  // Capacity vector used by SLA placement (Section 4).
  ResourceVector capacity = ResourceVector(100, 4096, 100000, 1000);
  EngineOptions engine_options;
  // Degree of intra-machine parallelism for query work (models cores).
  // <= 0 means unlimited.
  int max_concurrent_ops = 0;
  // Fixed execution cost charged per operation (models per-query CPU).
  int64_t base_op_latency_us = 0;

  // Runtime QoS configuration. Quotas are not configured here: the
  // controller pushes them per database with kSetQuota.
  struct QosOptions {
    // Scheduling discipline for the bounded worker pool. kWeightedFair is
    // the default; kFifo reproduces the pre-QoS semaphore handoff (used by
    // bench/noisy_neighbor as the "QoS off" configuration).
    qos::WeightedFairQueue::Policy queue_policy =
        qos::WeightedFairQueue::Policy::kWeightedFair;
  };
  QosOptions qos;
};

// One commodity database machine: an engine instance, a capacity vector, and
// a failure switch. A failed machine loses its contents (power/disk failure
// in the paper); Recover() returns it to service as an *empty* machine that
// the colo's free pool can hand back to a cluster.
class Machine {
 public:
  Machine(int id, MachineOptions options);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  const MachineOptions& options() const { return options_; }
  const ResourceVector& capacity() const { return options_.capacity; }

  // Returns a shared handle so in-flight operations stay valid even if the
  // machine is failed and later recovered (which installs a fresh engine).
  std::shared_ptr<Engine> engine() const;

  bool failed() const { return failed_.load(std::memory_order_acquire); }

  // Simulates a machine crash: contents are lost, in-flight work is moot.
  void Fail();

  // Brings the machine back with a fresh, empty engine on an empty log.
  void Recover();

  // Bounded worker pool with per-database weighted fair queueing (nullptr =
  // unlimited). Replaces the plain op semaphore: slots are granted WDRR
  // across databases so one tenant's burst cannot monopolize the pool.
  qos::WeightedFairQueue* fair_queue() { return fair_queue_.get(); }

  int64_t base_op_latency_us() const { return options_.base_op_latency_us; }

  // QoS admission point for one transaction Begin on `db`: charges the
  // database's token bucket. Called by MachineService before any engine
  // work, so a denied transaction leaves no state behind.
  qos::AdmitDecision AdmitBegin(const std::string& db);

  // Installs or replaces the admission quota and WDRR weight for `db`
  // (the kSetQuota handler).
  void SetQuota(const std::string& db, const qos::QuotaSpec& spec);
  qos::QuotaSpec GetQuota(const std::string& db) const;

  // Records one execute latency sample (mtdb_qos_execute_us{machine}).
  void RecordExecuteLatency(int64_t latency_us);

 private:
  int id_;
  std::string name_;
  MachineOptions options_;
  mutable platform::Mutex engine_mu_{"cluster/Machine::engine_mu"};
  std::shared_ptr<Engine> engine_ MTDB_GUARDED_BY(engine_mu_);
  std::atomic<bool> failed_{false};
  std::unique_ptr<qos::WeightedFairQueue> fair_queue_;
  std::unique_ptr<qos::AdmissionController> admission_;
  Histogram* m_execute_us_ = nullptr;
};

}  // namespace mtdb

#endif  // MTDB_CLUSTER_MACHINE_H_
