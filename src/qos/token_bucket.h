#ifndef MTDB_QOS_TOKEN_BUCKET_H_
#define MTDB_QOS_TOKEN_BUCKET_H_

#include <cstdint>

#include "src/platform/mutex.h"

namespace mtdb::qos {

// Classic token bucket: `rate_per_sec` tokens accrue continuously up to a
// cap of `burst` tokens; an acquisition consumes one token. In any time
// window of length W the bucket therefore admits at most
// rate_per_sec * W + burst (+1 for window-boundary effects) acquisitions —
// qos_test asserts this property over randomized schedules.
//
// The caller supplies the clock (`now_us`) so admission is deterministic
// under test and so a single lock covers refill + spend.
class TokenBucket {
 public:
  TokenBucket(double rate_per_sec, double burst);

  // Attempts to take one token at time `now_us`. On success returns true.
  // On failure returns false and sets *retry_after_us to the time until
  // one full token will have accrued (the wire-carried backoff hint).
  bool TryAcquire(int64_t now_us, int64_t* retry_after_us);

  // Live reconfiguration (a quota re-push). The current fill is preserved,
  // clamped to the new burst, so a re-push never grants a free burst.
  void Configure(double rate_per_sec, double burst);

 private:
  void RefillLocked(int64_t now_us) MTDB_REQUIRES(mu_);

  mutable platform::Mutex mu_{"qos/TokenBucket::mu"};
  double rate_per_sec_ MTDB_GUARDED_BY(mu_);
  double burst_ MTDB_GUARDED_BY(mu_);
  double tokens_ MTDB_GUARDED_BY(mu_);
  int64_t last_refill_us_ MTDB_GUARDED_BY(mu_) = 0;
};

}  // namespace mtdb::qos

#endif  // MTDB_QOS_TOKEN_BUCKET_H_
