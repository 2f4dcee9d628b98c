#ifndef MTDB_OBS_LOAD_MONITOR_H_
#define MTDB_OBS_LOAD_MONITOR_H_

// Live per-database load feedback for the rebalancer.
//
// The paper's placement machinery (Section 4) sizes replicas from a
// resource requirement vector r[j]. The seed codebase derives r[j] once,
// from a synthetic creation-time profile; this monitor instead derives it
// continuously from the transactions the cluster actually commits: each
// Connection reports its finished transactions, the monitor keeps a sliding
// window per database, and EstimateFor() runs the observed throughput
// through the same sla::ProfileModel the placer already uses — so measured
// load and static profiles are directly comparable ResourceVectors.
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/common/resource.h"
#include "src/platform/mutex.h"

namespace mtdb::obs {

class LoadMonitor {
 public:
  struct Options {
    // Sliding window over which throughput is averaged.
    int64_t window_us = 5'000'000;
  };

  LoadMonitor() : LoadMonitor(Options{}) {}
  explicit LoadMonitor(Options options);

  // Reports one finished transaction against `db`. Called from connection
  // commit/abort paths (txn granularity, so a mutex is cheap enough). At
  // most once per window_us it also drops every window with no sample
  // inside the horizon; a tenant idle for a whole window starts afresh,
  // like a new one.
  void RecordTxn(const std::string& db, bool committed);

  // Committed transactions per second over the window. Databases with no
  // recent traffic decay to 0 as their window empties.
  double TpsFor(const std::string& db) const;

  // Measured-load requirement vector: sla::EstimateRequirement(0,
  // TpsFor(db)) under the default sla::ProfileModel. The live replacement
  // for the creation-time profile.
  ResourceVector EstimateFor(const std::string& db) const;

  // Names of the databases with committed traffic inside the window. The
  // rebalancer's working set: tenants whose measured demand is current.
  // Idle databases are excluded entirely — their estimate is a zero vector
  // (see EstimateFor), so reporting them would only dilute the planner's
  // input with ghosts.
  std::vector<std::string> ActiveDatabases() const;

  // Windows currently held: the tenants that finished a transaction within
  // one window before the last sweep, or since it.
  size_t window_count() const;

 private:
  struct Window {
    // (completion time us, committed) per transaction, trimmed to window_us.
    std::deque<std::pair<int64_t, bool>> samples;
    int64_t first_seen_us = 0;
  };

  double TpsLocked(const Window& window, int64_t now_us) const
      MTDB_REQUIRES(mu_);
  // True when the window holds no committed sample inside the horizon — the
  // tenant went quiet and its last-known demand is stale.
  bool IdleLocked(const Window& window, int64_t now_us) const
      MTDB_REQUIRES(mu_);

  Options options_;
  mutable platform::Mutex mu_{"obs/LoadMonitor::mu"};
  // Bound: the tenants active within one window, give or take the sweep
  // interval; RecordTxn drops the rest. mtdblint: allow(tenant-map)
  std::map<std::string, Window> windows_ MTDB_GUARDED_BY(mu_);
  int64_t last_sweep_us_ MTDB_GUARDED_BY(mu_) = 0;
};

}  // namespace mtdb::obs

#endif  // MTDB_OBS_LOAD_MONITOR_H_
