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

// Process-wide span sink. Lock-per-call is fine here: spans arrive at RPC
// granularity (microseconds of work per call), not per row.
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

  void ResetForTest();

 private:
  TraceCollector() = default;

  static constexpr size_t kMaxActiveTraces = 4096;
  static constexpr size_t kMaxSpansPerTrace = 64;
  static constexpr size_t kSlowRingCapacity = 128;

  mutable platform::Mutex mu_{"obs/TraceCollector::mu"};
  uint64_t next_trace_id_ MTDB_GUARDED_BY(mu_) = 1;
  int64_t slow_threshold_us_ MTDB_GUARDED_BY(mu_) = 1'000'000;
  std::map<uint64_t, TraceRecord> active_ MTDB_GUARDED_BY(mu_);
  std::deque<TraceRecord> slow_ MTDB_GUARDED_BY(mu_);
};

}  // namespace mtdb::obs

#endif  // MTDB_OBS_TRACE_H_
