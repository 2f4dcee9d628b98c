#include "src/obs/trace.h"

#include <sstream>

#include "src/common/clock.h"
#include "src/common/logging.h"

namespace mtdb::obs {

std::string TraceRecord::ToString() const {
  std::ostringstream out;
  out << "trace " << trace_id << " txn " << txn_id << " "
      << (committed ? "committed" : "aborted") << " in " << duration_us
      << "us, " << spans.size() << " rpc(s)";
  for (const TraceSpan& span : spans) {
    out << "\n  " << span.operation << " machine=" << span.machine_id
        << " client=" << span.client_duration_us << "us";
    if (span.server_duration_us >= 0) {
      out << " server=" << span.server_duration_us << "us";
    } else {
      out << " server=unreported";
    }
    if (span.code != StatusCode::kOk) {
      out << " code=" << static_cast<int>(span.code);
    }
  }
  return out.str();
}

TraceCollector& TraceCollector::Global() {
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

uint64_t TraceCollector::StartTrace(uint64_t txn_id) {
  platform::Guard lock(mu_);
  uint64_t id = next_trace_id_++;
  // A leaked transaction (client that never commits or aborts) must not pin
  // memory forever: drop the oldest active record past the bound.
  if (active_.size() >= kMaxActiveTraces) active_.erase(active_.begin());
  TraceRecord& record = active_[id];
  record.trace_id = id;
  record.txn_id = txn_id;
  record.start_us = NowMicros();
  return id;
}

void TraceCollector::RecordSpan(const TraceSpan& span) {
  if (span.trace_id == 0) return;
  platform::Guard lock(mu_);
  auto it = active_.find(span.trace_id);
  if (it == active_.end()) return;
  if (it->second.spans.size() >= kMaxSpansPerTrace) return;
  it->second.spans.push_back(span);
}

void TraceCollector::FinishTrace(uint64_t trace_id, bool committed) {
  if (trace_id == 0) return;
  TraceRecord finished;
  bool slow = false;
  {
    platform::Guard lock(mu_);
    auto it = active_.find(trace_id);
    if (it == active_.end()) return;
    finished = std::move(it->second);
    active_.erase(it);
    finished.committed = committed;
    finished.duration_us = NowMicros() - finished.start_us;
    if (finished.duration_us >= slow_threshold_us_) {
      slow = true;
      slow_.push_back(finished);
      if (slow_.size() > kSlowRingCapacity) slow_.pop_front();
    }
  }
  if (slow) {
    MTDB_LOG(kWarning) << "slow transaction: " << finished.ToString();
  }
}

void TraceCollector::set_slow_threshold_us(int64_t threshold_us) {
  platform::Guard lock(mu_);
  slow_threshold_us_ = threshold_us;
}

int64_t TraceCollector::slow_threshold_us() const {
  platform::Guard lock(mu_);
  return slow_threshold_us_;
}

std::vector<TraceRecord> TraceCollector::SlowTraces() const {
  platform::Guard lock(mu_);
  return {slow_.begin(), slow_.end()};
}

void TraceCollector::ResetForTest() {
  platform::Guard lock(mu_);
  active_.clear();
  slow_.clear();
  slow_threshold_us_ = 1'000'000;
}

}  // namespace mtdb::obs
