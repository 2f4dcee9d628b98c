#include "src/qos/admission.h"

namespace mtdb::qos {

AdmissionController::AdmissionController(const Options& options) {
  if (!options.machine.empty()) {
    m_throttled_ = obs::MetricsRegistry::Global().GetCounter(
        "mtdb_qos_throttled_total", {.machine = options.machine});
  }
}

void AdmissionController::SetQuota(const std::string& db,
                                   const QuotaSpec& spec) {
  platform::Guard lock(mu_);
  Entry& entry = entries_[db];
  entry.spec = spec;
  if (spec.rate_tps <= 0) {
    entry.bucket.reset();
  } else if (entry.bucket != nullptr) {
    entry.bucket->Configure(spec.rate_tps, spec.burst);
  } else {
    entry.bucket = std::make_unique<TokenBucket>(spec.rate_tps, spec.burst);
  }
}

QuotaSpec AdmissionController::GetQuota(const std::string& db) const {
  platform::Guard lock(mu_);
  auto it = entries_.find(db);
  return it == entries_.end() ? QuotaSpec{} : it->second.spec;
}

AdmitDecision AdmissionController::AdmitTxn(const std::string& db,
                                            int64_t now_us) {
  platform::Guard lock(mu_);
  auto it = entries_.find(db);
  if (it == entries_.end() || it->second.spec.rate_tps <= 0) return {};
  Entry& entry = it->second;
  if (entry.bucket == nullptr) {
    // Rebuild after eviction: full burst, which Evict's idle-time
    // precondition made equivalent to having kept the bucket.
    entry.bucket =
        std::make_unique<TokenBucket>(entry.spec.rate_tps, entry.spec.burst);
  }
  entry.last_admit_us = now_us;
  // Charged under mu_: SetQuota and Evict may drop the bucket.
  AdmitDecision decision;
  decision.admitted =
      entry.bucket->TryAcquire(now_us, &decision.retry_after_us);
  if (!decision.admitted) obs::Increment(m_throttled_);
  return decision;
}

bool AdmissionController::Evict(const std::string& db, int64_t now_us) {
  platform::Guard lock(mu_);
  auto it = entries_.find(db);
  if (it == entries_.end() || it->second.bucket == nullptr) return false;
  Entry& entry = it->second;
  // One full refill must have elapsed since the last admission, so the
  // bucket is provably full and a full-burst rebuild loses nothing. The
  // bucket's burst, not the spec's: a spec burst <= 0 means max(rate, 1).
  double refill_s = entry.bucket->burst() / entry.spec.rate_tps;
  int64_t refill_us = static_cast<int64_t>(refill_s * 1e6) + 1;
  if (now_us - entry.last_admit_us < refill_us) return false;
  entry.bucket.reset();
  return true;
}

size_t AdmissionController::entry_count() const {
  platform::Guard lock(mu_);
  return entries_.size();
}

}  // namespace mtdb::qos
