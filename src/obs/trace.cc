#include "src/obs/trace.h"

#include <sstream>
#include <utility>

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
  uint64_t id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  TraceRecord record;
  record.trace_id = id;
  record.txn_id = txn_id;
  record.start_us = NowMicros();
  Shard& shard = ShardFor(id);
  platform::Guard lock(shard.mu);
  if (shard.active.size() >= kMaxActivePerShard) {
    shard.active.erase(shard.active.begin());
  }
  shard.active.emplace(id, std::move(record));
  return id;
}

void TraceCollector::RecordSpan(const TraceSpan& span) {
  if (span.trace_id == 0) return;
  Shard& shard = ShardFor(span.trace_id);
  platform::Guard lock(shard.mu);
  auto it = shard.active.find(span.trace_id);
  if (it == shard.active.end()) return;
  if (it->second.spans.size() >= kMaxSpansPerTrace) return;
  it->second.spans.push_back(span);
}

void TraceCollector::FinishTrace(uint64_t trace_id, bool committed) {
  if (trace_id == 0) return;
  std::map<uint64_t, TraceRecord>::node_type node;
  {
    Shard& shard = ShardFor(trace_id);
    platform::Guard lock(shard.mu);
    node = shard.active.extract(trace_id);
  }
  if (node.empty()) return;
  TraceRecord& finished = node.mapped();
  finished.committed = committed;
  finished.duration_us = NowMicros() - finished.start_us;
  if (finished.duration_us <
      slow_threshold_us_.load(std::memory_order_relaxed)) {
    return;
  }
  {
    platform::Guard lock(mu_);
    slow_.push_back(finished);
    if (slow_.size() > kSlowRingCapacity) slow_.pop_front();
  }
  MTDB_LOG(kWarning) << "slow transaction: " << finished.ToString();
}

void TraceCollector::set_slow_threshold_us(int64_t threshold_us) {
  slow_threshold_us_.store(threshold_us, std::memory_order_relaxed);
}

int64_t TraceCollector::slow_threshold_us() const {
  return slow_threshold_us_.load(std::memory_order_relaxed);
}

std::vector<TraceRecord> TraceCollector::SlowTraces() const {
  platform::Guard lock(mu_);
  return {slow_.begin(), slow_.end()};
}

size_t TraceCollector::active_traces() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    platform::Guard lock(shard.mu);
    total += shard.active.size();
  }
  return total;
}

void TraceCollector::ResetForTest() {
  for (Shard& shard : shards_) {
    platform::Guard lock(shard.mu);
    shard.active.clear();
  }
  {
    platform::Guard lock(mu_);
    slow_.clear();
  }
  slow_threshold_us_.store(1'000'000, std::memory_order_relaxed);
}

}  // namespace mtdb::obs
