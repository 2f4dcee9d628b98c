#ifndef MTDB_QOS_ADMISSION_H_
#define MTDB_QOS_ADMISSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/platform/mutex.h"
#include "src/obs/metrics.h"
#include "src/qos/qos.h"
#include "src/qos/token_bucket.h"

namespace mtdb::qos {

// Per-{machine, database} admission control: one token bucket per co-located
// database with a quota, charged once per transaction at Begin time.
// Charging at Begin — not per operation — keeps replicated writes atomic with
// respect to throttling: by the time a write fans out, every target machine
// has already admitted the transaction, so a quota can never cut a write off
// on a subset of replicas.
//
// Only SetQuota creates state, and a bucket lives as long as its quota. A
// database without a quota is unlimited and is admitted with one lookup,
// leaving nothing behind.
class AdmissionController {
 public:
  struct Options {
    // Label for the throttle counter; empty disables metrics.
    std::string machine{};
  };

  explicit AdmissionController(const Options& options);

  // Installs or replaces the quota for `db`. Live-reconfigures the existing
  // bucket (current fill preserved) so a re-push never grants a free burst.
  void SetQuota(const std::string& db, const QuotaSpec& spec);

  QuotaSpec GetQuota(const std::string& db) const;

  // Charges one transaction against `db`'s bucket. Unlimited databases are
  // always admitted without charge.
  AdmitDecision AdmitTxn(const std::string& db, int64_t now_us);

  size_t entry_count() const;

 private:
  struct Entry {
    QuotaSpec spec{};
    std::unique_ptr<TokenBucket> bucket;  // null when unlimited
  };

  // mtdb_qos_throttled_total{machine}; null when the machine label is empty.
  obs::Counter* m_throttled_ = nullptr;
  mutable platform::Mutex mu_{"qos/AdmissionController::mu"};
  // Bound: one entry per explicit quota the controller pushed here; an
  // unquoted database leaves none. mtdblint: allow(tenant-map)
  std::map<std::string, Entry> entries_ MTDB_GUARDED_BY(mu_);
};

}  // namespace mtdb::qos

#endif  // MTDB_QOS_ADMISSION_H_
