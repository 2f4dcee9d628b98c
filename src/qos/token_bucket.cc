#include "src/qos/token_bucket.h"

#include <algorithm>
#include <cmath>

namespace mtdb::qos {

namespace {
double EffectiveBurst(double rate, double burst) {
  if (burst > 0) return burst;
  return std::max(rate, 1.0);
}
}  // namespace

TokenBucket::TokenBucket(double rate_per_sec, double burst)
    : rate_per_sec_(rate_per_sec),
      burst_(EffectiveBurst(rate_per_sec, burst)),
      tokens_(burst_) {}

void TokenBucket::RefillLocked(int64_t now_us) {
  if (now_us <= last_refill_us_) return;
  double elapsed_sec =
      static_cast<double>(now_us - last_refill_us_) / 1'000'000.0;
  tokens_ = std::min(burst_, tokens_ + elapsed_sec * rate_per_sec_);
  last_refill_us_ = now_us;
}

bool TokenBucket::TryAcquire(int64_t now_us, int64_t* retry_after_us) {
  platform::Guard lock(mu_);
  RefillLocked(now_us);
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    return true;
  }
  if (retry_after_us != nullptr) {
    if (rate_per_sec_ <= 0) {
      // No refill is coming; tell the caller to wait a long beat.
      *retry_after_us = 1'000'000;
    } else {
      double deficit = 1.0 - tokens_;
      *retry_after_us = static_cast<int64_t>(
          std::ceil(deficit / rate_per_sec_ * 1'000'000.0));
    }
  }
  return false;
}

void TokenBucket::Configure(double rate_per_sec, double burst) {
  platform::Guard lock(mu_);
  rate_per_sec_ = rate_per_sec;
  burst_ = EffectiveBurst(rate_per_sec, burst);
  tokens_ = std::min(tokens_, burst_);
}

}  // namespace mtdb::qos
