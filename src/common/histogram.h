#ifndef MTDB_COMMON_HISTOGRAM_H_
#define MTDB_COMMON_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>

namespace mtdb {

// Point-in-time summary of a Histogram. Its count is the total of the
// buckets it read, so count and percentiles agree even while other threads
// keep recording.
struct HistogramSnapshot {
  int64_t count = 0;
  double mean = 0.0;
  int64_t p50 = 0;
  int64_t p99 = 0;
  int64_t min = 0;
  int64_t max = 0;
};

// Thread-safe latency histogram with power-of-two-ish buckets. Records
// microsecond values; reports count/mean/percentiles. Used by the metrics
// registry, the workload driver and the benchmark harnesses.
//
// Lock-free: Record, Merge and Snapshot are relaxed atomic adds and loads
// over 64 buckets plus a sum, a min and a max. The one ordering they rely
// on is that a bucket add is a release and a snapshot's bucket loads are
// acquires, so a snapshot that counts a sample also sees that sample's sum,
// min and max.
class Histogram {
 public:
  Histogram() = default;
  // Copyable (snapshot semantics) so aggregate stat structs can be passed
  // around by value.
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);

  void Record(int64_t value_us);
  void Merge(const Histogram& other);
  // Not atomic against concurrent recorders: call it on a quiet histogram.
  void Reset();

  int64_t count() const;
  double Mean() const;
  // Approximate percentile (bucket upper bound interpolation). p in [0, 100].
  int64_t Percentile(double p) const;
  int64_t Min() const;
  int64_t Max() const;

  // All summary fields from one read of the buckets; unlike calling
  // count() / Mean() / Percentile() separately, the result is a consistent
  // cut even with concurrent recorders.
  HistogramSnapshot Snapshot() const;

  std::string ToString() const;

 private:
  static constexpr int kNumBuckets = 64;
  using Counts = std::array<int64_t, kNumBuckets>;

  static int BucketFor(int64_t value);
  static int64_t BucketUpperBound(int bucket);
  static int64_t PercentileOf(const Counts& counts, int64_t count,
                              int64_t max, double p);
  // Reads every bucket into *counts and returns their total.
  int64_t LoadCounts(Counts* counts) const;
  // Folds [min, max] and `sum` in, then adds `counts` bucket by bucket.
  void Add(const Counts& counts, int64_t sum, int64_t min, int64_t max);

  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> sum_{0};
  // Sentinels while empty; readers report 0 for an empty histogram.
  std::atomic<int64_t> min_{std::numeric_limits<int64_t>::max()};
  std::atomic<int64_t> max_{std::numeric_limits<int64_t>::min()};
};

}  // namespace mtdb

#endif  // MTDB_COMMON_HISTOGRAM_H_
