#ifndef MTDB_OBS_METRICS_H_
#define MTDB_OBS_METRICS_H_

// Process-wide metrics registry: counters, gauges, and latency histograms
// with {machine, operation} labels.
//
// Design goals, in order:
//  1. Hot-path recording must be cheap. Callers resolve a series once
//     (GetCounter/GetHistogram at setup time) and then record through the
//     returned pointer: a counter increment is one relaxed atomic add on a
//     cache-line-padded shard, a histogram observation takes the histogram's
//     own mutex for a few instructions.
//  2. Recording must be safe from any thread at any time. Series pointers
//     are stable for the process lifetime (node-based maps that never erase,
//     registry is a leaked singleton), so instrumented code never touches a
//     dangling pointer even during shutdown.
//  3. Cardinality is bounded by construction. The only label values are
//     machine names and fixed operation names, so no family grows with the
//     number of tenants and no series is ever retired. Per-tenant load lives
//     in obs::LoadMonitor, which drops a tenant idle for a whole window.
//
// Metrics can be disabled at runtime (MetricsRegistry::SetEnabled(false))
// or compiled out entirely with -DMTDB_NO_METRICS=1 (cmake -DMTDB_METRICS=OFF),
// which turns every Increment/Observe into a no-op the optimizer deletes.
#include <atomic>
#include <compare>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/platform/mutex.h"

namespace mtdb::obs {

// Label tuple identifying one series within a metric family. Empty labels
// are omitted from dumps. Both label sets are fixed by the deployment and the
// code: machine names and operation (RPC type) names — never tenant names,
// row keys or SQL text.
struct MetricLabels {
  // Default member initializers keep partial designated initialization
  // ({.machine = ...}) clean under -Wextra's missing-field warning.
  std::string machine{};
  std::string operation{};

  auto operator<=>(const MetricLabels&) const = default;
};

// Monotonic counter, sharded across cache-line-padded atomics so concurrent
// writers on different cores do not bounce one line.
class Counter {
 public:
  void Add(int64_t delta) {
    shards_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const {
    int64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr int kShards = 8;
  struct alignas(64) Shard {
    std::atomic<int64_t> value{0};
  };
  static size_t ShardIndex() {
    return std::hash<std::thread::id>{}(std::this_thread::get_id()) %
           static_cast<size_t>(kShards);
  }
  Shard shards_[kShards];
};

// Last-write-wins instantaneous value (queue depths, pool sizes).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// One series in a point-in-time snapshot of the registry.
struct SeriesSnapshot {
  std::string name;
  MetricLabels labels;
  enum class Kind { kCounter, kGauge, kHistogram } kind = Kind::kCounter;
  int64_t value = 0;            // counters and gauges
  HistogramSnapshot histogram;  // histograms
};

class MetricsRegistry {
 public:
  // Process-wide registry; never destroyed, so series pointers handed to
  // instrumented code stay valid through static destruction.
  static MetricsRegistry& Global();

  // Resolve-or-create a series. Pointers are stable for the registry's
  // lifetime; call once at setup and cache the result.
  Counter* GetCounter(const std::string& name, const MetricLabels& labels);
  Gauge* GetGauge(const std::string& name, const MetricLabels& labels);
  Histogram* GetHistogram(const std::string& name, const MetricLabels& labels);

  // Runtime kill switch consulted by the Increment/Observe helpers.
#if defined(MTDB_NO_METRICS)
  static bool enabled() { return false; }
  static void SetEnabled(bool) {}
#else
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
#endif

  // Sum of one counter family across all label tuples; 0 if absent.
  int64_t SumCounter(const std::string& name) const;
  // Value of one exact series; 0 if absent.
  int64_t CounterValue(const std::string& name,
                       const MetricLabels& labels) const;
  int64_t GaugeValue(const std::string& name, const MetricLabels& labels) const;

  std::vector<SeriesSnapshot> Snapshot() const;

  // Text exposition, one series per line:
  //   name{machine="m0"} 42
  //   name{operation="kPrepare"} count=10 mean=130.0 p50=120 p99=400 max=412
  std::string TextDump() const;

  // Zeroes every registered series (the series themselves stay registered so
  // cached pointers remain live). Test-only.
  void ResetForTest();

 private:
  MetricsRegistry() = default;

  // One metric family: its series by label tuple. A map node never moves,
  // so the address of a series is stable.
  template <typename Series>
  using Family = std::map<MetricLabels, Series>;

#if !defined(MTDB_NO_METRICS)
  static std::atomic<bool> enabled_;
#endif

  mutable platform::SharedMutex mu_{"obs/MetricsRegistry::mu"};
  // Keyed by metric name, a fixed set in the code; the series inside a
  // family are keyed by machine and operation labels, fixed sets too, so
  // these maps never grow with tenants. mtdblint: allow(tenant-map)
  std::map<std::string, Family<Counter>> counters_ MTDB_GUARDED_BY(mu_);
  // Metric names and fixed label sets, as above. mtdblint: allow(tenant-map)
  std::map<std::string, Family<Gauge>> gauges_ MTDB_GUARDED_BY(mu_);
  // Metric names and fixed label sets, as above. mtdblint: allow(tenant-map)
  std::map<std::string, Family<Histogram>> histograms_ MTDB_GUARDED_BY(mu_);
};

// Hot-path recording helpers: tolerate null series (instrumentation not yet
// bound) and compile to nothing under MTDB_NO_METRICS.
inline void Increment(Counter* counter, int64_t delta = 1) {
#if !defined(MTDB_NO_METRICS)
  if (counter != nullptr && MetricsRegistry::enabled()) counter->Add(delta);
#else
  (void)counter;
  (void)delta;
#endif
}

inline void Observe(Histogram* histogram, int64_t value) {
#if !defined(MTDB_NO_METRICS)
  if (histogram != nullptr && MetricsRegistry::enabled()) {
    histogram->Record(value);
  }
#else
  (void)histogram;
  (void)value;
#endif
}

inline void GaugeAdd(Gauge* gauge, int64_t delta) {
#if !defined(MTDB_NO_METRICS)
  if (gauge != nullptr && MetricsRegistry::enabled()) gauge->Add(delta);
#else
  (void)gauge;
  (void)delta;
#endif
}

// Records elapsed microseconds into `histogram` on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(histogram), start_us_(NowMicros()) {}
  ~ScopedTimer() { Observe(histogram_, NowMicros() - start_us_); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  int64_t start_us_;
};

}  // namespace mtdb::obs

#endif  // MTDB_OBS_METRICS_H_
