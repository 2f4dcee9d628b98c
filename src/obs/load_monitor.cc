#include "src/obs/load_monitor.h"

#include <algorithm>

#include "src/common/clock.h"
#include "src/sla/sla.h"

namespace mtdb::obs {

LoadMonitor::LoadMonitor(Options options) : options_(options) {}

void LoadMonitor::RecordTxn(const std::string& db, bool committed) {
  int64_t now = NowMicros();
  int64_t horizon = now - options_.window_us;
  platform::Guard lock(mu_);
  if (now - last_sweep_us_ >= options_.window_us) {
    last_sweep_us_ = now;
    // Samples are appended in completion order, so the newest is last.
    std::erase_if(windows_, [horizon](const auto& entry) {
      return entry.second.samples.back().first < horizon;
    });
  }
  Window& window = windows_[db];
  while (!window.samples.empty() && window.samples.front().first < horizon) {
    window.samples.pop_front();
  }
  if (window.samples.empty()) window.first_seen_us = now;
  window.samples.emplace_back(now, committed);
}

double LoadMonitor::TpsLocked(const Window& window, int64_t now_us) const {
  int64_t committed = 0;
  int64_t horizon = now_us - options_.window_us;
  for (const auto& [when, ok] : window.samples) {
    if (when >= horizon && ok) ++committed;
  }
  if (committed == 0) return 0.0;
  // Average over the observed span, not the full window: a database that
  // came up 1s ago with 20 txns is doing 20 tps, not 20/window. Floor the
  // span so a burst in the first milliseconds cannot explode the estimate.
  int64_t span_us = now_us - std::max(window.first_seen_us, horizon);
  span_us = std::max<int64_t>(span_us, 100'000);
  return static_cast<double>(committed) * 1e6 / static_cast<double>(span_us);
}

bool LoadMonitor::IdleLocked(const Window& window, int64_t now_us) const {
  int64_t horizon = now_us - options_.window_us;
  for (const auto& [when, ok] : window.samples) {
    if (when >= horizon && ok) return false;
  }
  return true;
}

double LoadMonitor::TpsFor(const std::string& db) const {
  int64_t now = NowMicros();
  platform::Guard lock(mu_);
  auto it = windows_.find(db);
  return it == windows_.end() ? 0.0 : TpsLocked(it->second, now);
}

ResourceVector LoadMonitor::EstimateFor(const std::string& db) const {
  int64_t now = NowMicros();
  platform::Guard lock(mu_);
  auto it = windows_.find(db);
  if (it == windows_.end()) return sla::EstimateRequirement(0.0, 0.0);
  // A database with no committed transactions in the window contributes a
  // zero vector, not the base terms of the profile model: stale windows
  // must not keep reporting demand (and thereby trigger rebalancing) for
  // tenants that went quiet.
  if (IdleLocked(it->second, now)) return ResourceVector{};
  return sla::EstimateRequirement(0.0, TpsLocked(it->second, now));
}

std::vector<std::string> LoadMonitor::ActiveDatabases() const {
  int64_t now = NowMicros();
  std::vector<std::string> names;
  platform::Guard lock(mu_);
  names.reserve(windows_.size());
  for (const auto& [name, window] : windows_) {
    if (!IdleLocked(window, now)) names.push_back(name);
  }
  return names;
}

size_t LoadMonitor::window_count() const {
  platform::Guard lock(mu_);
  return windows_.size();
}

}  // namespace mtdb::obs
