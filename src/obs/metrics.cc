#include "src/obs/metrics.h"

#include <sstream>

namespace mtdb::obs {

#if !defined(MTDB_NO_METRICS)
std::atomic<bool> MetricsRegistry::enabled_{true};
#endif

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: instrumented code may record during static
  // destruction, and series pointers must outlive every caller.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {

template <typename Series>
using FamilyMap = std::map<std::string, std::map<MetricLabels, Series>>;

// Shared lookup-or-insert over the three family maps: a reader-locked
// lookup, then a writer-locked insert on first use.
template <typename Series>
Series* GetSeries(platform::SharedMutex& mu, FamilyMap<Series>& families,
                  const std::string& name, const MetricLabels& labels) {
  {
    platform::ReaderGuard read(mu);
    auto family_it = families.find(name);
    if (family_it != families.end()) {
      auto series_it = family_it->second.find(labels);
      if (series_it != family_it->second.end()) return &series_it->second;
    }
  }
  platform::WriterGuard write(mu);
  return &families[name].try_emplace(labels).first->second;
}

// The series of one exact label tuple, or null; the caller holds the lock.
template <typename Series>
const Series* FindSeries(const FamilyMap<Series>& families,
                         const std::string& name, const MetricLabels& labels) {
  auto family_it = families.find(name);
  if (family_it == families.end()) return nullptr;
  auto series_it = family_it->second.find(labels);
  return series_it == family_it->second.end() ? nullptr : &series_it->second;
}

void AppendLabels(std::ostringstream& out, const MetricLabels& labels) {
  bool any = false;
  auto emit = [&](const char* label_name, const std::string& value) {
    if (value.empty()) return;
    out << (any ? "," : "{") << label_name << "=\"" << value << "\"";
    any = true;
  };
  emit("machine", labels.machine);
  emit("operation", labels.operation);
  if (any) out << "}";
}

}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const MetricLabels& labels) {
  return GetSeries(mu_, counters_, name, labels);
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const MetricLabels& labels) {
  return GetSeries(mu_, gauges_, name, labels);
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const MetricLabels& labels) {
  return GetSeries(mu_, histograms_, name, labels);
}

int64_t MetricsRegistry::SumCounter(const std::string& name) const {
  platform::ReaderGuard read(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) return 0;
  int64_t total = 0;
  for (const auto& [labels, counter] : it->second) total += counter.Value();
  return total;
}

int64_t MetricsRegistry::CounterValue(const std::string& name,
                                      const MetricLabels& labels) const {
  platform::ReaderGuard read(mu_);
  const Counter* counter = FindSeries(counters_, name, labels);
  return counter == nullptr ? 0 : counter->Value();
}

int64_t MetricsRegistry::GaugeValue(const std::string& name,
                                    const MetricLabels& labels) const {
  platform::ReaderGuard read(mu_);
  const Gauge* gauge = FindSeries(gauges_, name, labels);
  return gauge == nullptr ? 0 : gauge->Value();
}

std::vector<SeriesSnapshot> MetricsRegistry::Snapshot() const {
  std::vector<SeriesSnapshot> out;
  auto add = [&out](const std::string& name, const MetricLabels& labels,
                    SeriesSnapshot::Kind kind) -> SeriesSnapshot& {
    SeriesSnapshot& snap = out.emplace_back();
    snap.name = name;
    snap.labels = labels;
    snap.kind = kind;
    return snap;
  };
  platform::ReaderGuard read(mu_);
  for (const auto& [name, family] : counters_) {
    for (const auto& [labels, counter] : family) {
      add(name, labels, SeriesSnapshot::Kind::kCounter).value =
          counter.Value();
    }
  }
  for (const auto& [name, family] : gauges_) {
    for (const auto& [labels, gauge] : family) {
      add(name, labels, SeriesSnapshot::Kind::kGauge).value = gauge.Value();
    }
  }
  for (const auto& [name, family] : histograms_) {
    for (const auto& [labels, histogram] : family) {
      add(name, labels, SeriesSnapshot::Kind::kHistogram).histogram =
          histogram.Snapshot();
    }
  }
  return out;
}

std::string MetricsRegistry::TextDump() const {
  std::ostringstream out;
  for (const SeriesSnapshot& snap : Snapshot()) {
    out << snap.name;
    AppendLabels(out, snap.labels);
    if (snap.kind == SeriesSnapshot::Kind::kHistogram) {
      out << " count=" << snap.histogram.count << " mean=" << snap.histogram.mean
          << " p50=" << snap.histogram.p50 << " p99=" << snap.histogram.p99
          << " max=" << snap.histogram.max;
    } else {
      out << " " << snap.value;
    }
    out << "\n";
  }
  return out.str();
}

void MetricsRegistry::ResetForTest() {
  platform::WriterGuard write(mu_);
  for (auto& [name, family] : counters_) {
    for (auto& [labels, counter] : family) counter.Reset();
  }
  for (auto& [name, family] : gauges_) {
    for (auto& [labels, gauge] : family) gauge.Reset();
  }
  for (auto& [name, family] : histograms_) {
    for (auto& [labels, histogram] : family) histogram.Reset();
  }
}

}  // namespace mtdb::obs
