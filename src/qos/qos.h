#ifndef MTDB_QOS_QOS_H_
#define MTDB_QOS_QOS_H_

#include <cstdint>

// Shared vocabulary types for the QoS subsystem, dependency-free so the
// wire and controller layers can carry quotas without the runtime
// machinery.
namespace mtdb::qos {

// Per-{machine, database} admission contract. The controller stores it in
// the tenant record and pushes it with the kSetQuota RPC to every replica,
// again on copy completion and on replica swap. A database without one is
// unlimited and runs at the default WDRR weight.
struct QuotaSpec {
  // Token refill rate in transactions/second. <= 0 means unlimited: no
  // token bucket is enforced for this database.
  double rate_tps = 0;
  // Bucket depth: how large a burst is admitted above the steady rate.
  // <= 0 defaults to max(rate_tps, 1).
  double burst = 0;
  // Weighted deficit round-robin weight for the machine's worker-pool
  // queue. Clamped to >= 1.
  int weight = 1;
};

// Outcome of an admission check.
struct AdmitDecision {
  bool admitted = true;
  // When !admitted: how long the caller should wait before retrying, in
  // microseconds. 0 means "no hint".
  int64_t retry_after_us = 0;
};

}  // namespace mtdb::qos

#endif  // MTDB_QOS_QOS_H_
