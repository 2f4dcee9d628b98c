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
  if (it == entries_.end() || it->second.bucket == nullptr) return {};
  // Charged under mu_: SetQuota may drop the bucket.
  AdmitDecision decision;
  decision.admitted =
      it->second.bucket->TryAcquire(now_us, &decision.retry_after_us);
  if (!decision.admitted) obs::Increment(m_throttled_);
  return decision;
}

size_t AdmissionController::entry_count() const {
  platform::Guard lock(mu_);
  return entries_.size();
}

}  // namespace mtdb::qos
