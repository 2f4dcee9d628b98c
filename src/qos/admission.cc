#include "src/qos/admission.h"

namespace mtdb::qos {

AdmissionController::AdmissionController(const Options& options)
    : options_(options) {
  if (!options_.machine.empty()) {
    m_throttled_ = obs::MetricsRegistry::Global().GetCounter(
        "mtdb_qos_throttled_total", {.machine = options_.machine});
  }
}

AdmissionController::Entry& AdmissionController::EntryLocked(
    const std::string& db) {
  auto [it, inserted] = entries_.try_emplace(db);
  Entry& entry = it->second;
  if (inserted) {
    entry.spec = options_.default_quota;
    if (entry.spec.rate_tps > 0) {
      entry.bucket = std::make_unique<TokenBucket>(entry.spec.rate_tps,
                                                   entry.spec.burst);
    }
  }
  return entry;
}

void AdmissionController::SetQuota(const std::string& db,
                                   const QuotaSpec& spec) {
  platform::Guard lock(mu_);
  Entry& entry = EntryLocked(db);
  entry.spec = spec;
  entry.explicit_quota = true;
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
  if (it == entries_.end()) return options_.default_quota;
  return it->second.spec;
}

AdmitDecision AdmissionController::AdmitTxn(const std::string& db,
                                            int64_t now_us) {
  TokenBucket* bucket;
  {
    platform::Guard lock(mu_);
    Entry& entry = EntryLocked(db);
    if (entry.bucket == nullptr && entry.spec.rate_tps > 0) {
      // Rebuild after eviction: full burst, which Evict's idle-time
      // precondition made equivalent to having kept the bucket.
      entry.bucket =
          std::make_unique<TokenBucket>(entry.spec.rate_tps, entry.spec.burst);
    }
    entry.last_admit_us = now_us;
    bucket = entry.bucket.get();
  }
  if (bucket == nullptr) return {};
  AdmitDecision decision;
  decision.admitted = bucket->TryAcquire(now_us, &decision.retry_after_us);
  if (!decision.admitted) obs::Increment(m_throttled_);
  return decision;
}

bool AdmissionController::Evict(const std::string& db, int64_t now_us) {
  platform::Guard lock(mu_);
  auto it = entries_.find(db);
  if (it == entries_.end()) return false;
  Entry& entry = it->second;
  bool dropped = false;
  if (entry.bucket != nullptr && entry.spec.rate_tps > 0) {
    // One full refill must have elapsed since the last admission, so the
    // bucket is provably full and a full-burst rebuild loses nothing.
    double refill_s = entry.spec.burst / entry.spec.rate_tps;
    int64_t refill_us = static_cast<int64_t>(refill_s * 1e6) + 1;
    if (now_us - entry.last_admit_us < refill_us) return false;
    entry.bucket.reset();
    dropped = true;
  }
  if (!entry.explicit_quota) {
    // Default-quota entries are pure cache (EntryLocked recreates them),
    // so the map node itself can go.
    entries_.erase(it);
  }
  return dropped;
}

size_t AdmissionController::entry_count() const {
  platform::Guard lock(mu_);
  return entries_.size();
}

}  // namespace mtdb::qos
