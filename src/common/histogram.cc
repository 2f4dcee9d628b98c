#include "src/common/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace mtdb {

namespace {

void FoldMin(std::atomic<int64_t>& target, int64_t value) {
  int64_t seen = target.load(std::memory_order_relaxed);
  while (value < seen &&
         !target.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
  }
}

void FoldMax(std::atomic<int64_t>& target, int64_t value) {
  int64_t seen = target.load(std::memory_order_relaxed);
  while (value > seen &&
         !target.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(const Histogram& other) { Merge(other); }

Histogram& Histogram::operator=(const Histogram& other) {
  if (this == &other) return *this;
  Reset();
  Merge(other);
  return *this;
}

int Histogram::BucketFor(int64_t value) {
  if (value <= 0) return 0;
  int bucket = 0;
  uint64_t v = static_cast<uint64_t>(value);
  while (v > 1 && bucket < kNumBuckets - 1) {
    v >>= 1;
    ++bucket;
  }
  return bucket;
}

int64_t Histogram::BucketUpperBound(int bucket) {
  if (bucket >= 62) return INT64_MAX;
  return (int64_t{1} << (bucket + 1)) - 1;
}

void Histogram::Record(int64_t value_us) {
  FoldMin(min_, value_us);
  FoldMax(max_, value_us);
  sum_.fetch_add(value_us, std::memory_order_relaxed);
  // Last, and a release: a snapshot that counts this sample sees the rest.
  buckets_[BucketFor(value_us)].fetch_add(1, std::memory_order_release);
}

void Histogram::Add(const Counts& counts, int64_t sum, int64_t min,
                    int64_t max) {
  FoldMin(min_, min);
  FoldMax(max_, max);
  sum_.fetch_add(sum, std::memory_order_relaxed);
  for (int i = 0; i < kNumBuckets; ++i) {
    if (counts[i] != 0) {
      buckets_[i].fetch_add(counts[i], std::memory_order_release);
    }
  }
}

void Histogram::Merge(const Histogram& other) {
  // Reads other's buckets before anything else, so a self-merge adds what
  // it read and doubles the distribution in place.
  Counts counts;
  if (other.LoadCounts(&counts) == 0) return;
  Add(counts, other.sum_.load(std::memory_order_relaxed),
      other.min_.load(std::memory_order_relaxed),
      other.max_.load(std::memory_order_relaxed));
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<int64_t>::max(), std::memory_order_relaxed);
  max_.store(std::numeric_limits<int64_t>::min(), std::memory_order_relaxed);
}

int64_t Histogram::LoadCounts(Counts* counts) const {
  int64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    (*counts)[i] = buckets_[i].load(std::memory_order_acquire);
    total += (*counts)[i];
  }
  return total;
}

int64_t Histogram::PercentileOf(const Counts& counts, int64_t count,
                                int64_t max, double p) {
  if (count == 0) return 0;
  int64_t threshold = static_cast<int64_t>(std::ceil(count * p / 100.0));
  int64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += counts[i];
    if (cumulative >= threshold) return std::min(BucketUpperBound(i), max);
  }
  return max;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  Counts counts;
  snap.count = LoadCounts(&counts);
  if (snap.count == 0) return snap;
  snap.mean = static_cast<double>(sum_.load(std::memory_order_relaxed)) /
              snap.count;
  snap.min = min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  snap.p50 = PercentileOf(counts, snap.count, snap.max, 50);
  snap.p99 = PercentileOf(counts, snap.count, snap.max, 99);
  return snap;
}

int64_t Histogram::count() const {
  Counts counts;
  return LoadCounts(&counts);
}

double Histogram::Mean() const { return Snapshot().mean; }

int64_t Histogram::Percentile(double p) const {
  Counts counts;
  int64_t count = LoadCounts(&counts);
  return PercentileOf(counts, count, max_.load(std::memory_order_relaxed), p);
}

int64_t Histogram::Min() const { return Snapshot().min; }

int64_t Histogram::Max() const { return Snapshot().max; }

std::string Histogram::ToString() const {
  HistogramSnapshot snap = Snapshot();
  std::ostringstream out;
  out << "count=" << snap.count << " mean=" << snap.mean << "us p50="
      << snap.p50 << "us p99=" << snap.p99 << "us max=" << snap.max << "us";
  return out.str();
}

}  // namespace mtdb
