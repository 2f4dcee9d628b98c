#ifndef MTDB_OBS_TRACE_H_
#define MTDB_OBS_TRACE_H_

// Cross-machine transaction tracing.
//
// A trace follows one client transaction through the cluster: the
// controller-side Connection mints a trace id at Begin, every RPC issued on
// behalf of that transaction carries the id in its wire header, and the
// MachineClient records one span per RPC (operation, target machine,
// client-observed latency, and the server-reported service time echoed back
// in the response). FinishTrace assembles the spans into a TraceRecord;
// records slower than the configured threshold land in a bounded ring and
// the slow-transaction log.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/platform/mutex.h"

namespace mtdb::obs {

// One RPC observed within a trace.
struct TraceSpan {
  uint64_t trace_id = 0;
  int machine_id = -1;
  std::string operation;          // RpcTypeName of the request
  int64_t start_us = 0;           // client-side send time (NowMicros)
  int64_t client_duration_us = 0; // client-observed round trip
  int64_t server_duration_us = -1;  // service time echoed by the machine;
                                    // -1 when the reply never arrived
  StatusCode code = StatusCode::kOk;
};

// A completed transaction trace.
struct TraceRecord {
  uint64_t trace_id = 0;
  uint64_t txn_id = 0;
  int64_t start_us = 0;
  int64_t duration_us = 0;
  bool committed = false;
  std::vector<TraceSpan> spans;

  std::string ToString() const;
};

// Process-wide span sink. Spans arrive once per RPC from every client
// thread, so the per-call path takes no process-wide lock: active traces
// live in kShards shards keyed by trace id, each behind its own mutex, ids
// come from an atomic counter and the slow threshold is an atomic. The
// collector's one mutex guards only the slow ring, and only a trace at or
// over the threshold takes it.
class TraceCollector {
 public:
  static TraceCollector& Global();

  // Mints a new nonzero trace id and opens an active record for it.
  uint64_t StartTrace(uint64_t txn_id);

  // Attaches a span to its active trace; spans for unknown or zero trace
  // ids are dropped (e.g. control-plane RPCs outside any transaction).
  void RecordSpan(const TraceSpan& span);

  // Closes the trace: computes the duration, logs it when it exceeds the
  // slow threshold, and retains it in the slow ring. Unknown ids are a
  // no-op so double-finish on abort paths is harmless.
  void FinishTrace(uint64_t trace_id, bool committed);

  // Transactions at or above this duration are logged and retained.
  void set_slow_threshold_us(int64_t threshold_us);
  int64_t slow_threshold_us() const;

  std::vector<TraceRecord> SlowTraces() const;

  // Traces started and neither finished nor evicted by the cap.
  size_t active_traces() const;

  void ResetForTest();

 private:
  TraceCollector() = default;

  static constexpr size_t kShards = 16;
  // A leaked transaction (a client that never commits or aborts) must not
  // pin memory forever: past its share of this cap, a shard drops its
  // oldest active trace.
  static constexpr size_t kMaxActiveTraces = 4096;
  static constexpr size_t kMaxActivePerShard = kMaxActiveTraces / kShards;
  static constexpr size_t kMaxSpansPerTrace = 64;
  static constexpr size_t kSlowRingCapacity = 128;

  // Padded to a cache line each, so recorders on different shards do not
  // share one.
  struct alignas(64) Shard {
    mutable platform::Mutex mu{"obs/TraceCollector::Shard::mu"};
    // Ordered by id, so the oldest trace is first.
    std::map<uint64_t, TraceRecord> active MTDB_GUARDED_BY(mu);
  };

  Shard& ShardFor(uint64_t trace_id) { return shards_[trace_id % kShards]; }

  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<int64_t> slow_threshold_us_{1'000'000};
  Shard shards_[kShards];

  mutable platform::Mutex mu_{"obs/TraceCollector::mu"};
  std::deque<TraceRecord> slow_ MTDB_GUARDED_BY(mu_);
};

}  // namespace mtdb::obs

#endif  // MTDB_OBS_TRACE_H_
