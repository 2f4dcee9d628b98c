#ifndef MTDB_STORAGE_MVCC_TIMESTAMP_ORACLE_H_
#define MTDB_STORAGE_MVCC_TIMESTAMP_ORACLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>

#include "src/platform/mutex.h"

namespace mtdb::mvcc {

// Engine-wide commit-timestamp authority for the tables' MVCC version
// chains (DESIGN.md §13). Two jobs:
//
//  1. Mint strictly increasing commit timestamps for writers. A commit
//     *reserves* a timestamp, installs its versions, and then *publishes*
//     it; snapshot transactions only ever observe published timestamps, so
//     a reader can never see half of a commit (the engine serializes
//     reserve→install→publish under its commit mutex, which keeps the
//     publication order equal to the reservation order).
//
//  2. Track the set of active snapshots so the garbage collector knows the
//     watermark: no snapshot at or above the watermark can ever need a
//     version that was superseded at or before it.
class TimestampOracle {
 public:
  // Reserve the next commit timestamp (strictly increasing, starting at 1).
  // The timestamp is not visible to new snapshots until Publish(ts).
  uint64_t ReserveCommit() {
    return next_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // Make `ts` (and, by the serialized-commit contract, everything below it)
  // visible to subsequent snapshots.
  void Publish(uint64_t ts) {
    last_published_.store(ts, std::memory_order_release);
  }

  // Newest timestamp whose versions are fully installed.
  uint64_t LastPublished() const {
    return last_published_.load(std::memory_order_acquire);
  }

  // Register a snapshot at the current published frontier and return its
  // timestamp. Must be paired with EndSnapshot(ts).
  uint64_t BeginSnapshot() {
    platform::Guard lock(mu_);
    uint64_t ts = LastPublished();
    ++active_[ts];
    return ts;
  }

  void EndSnapshot(uint64_t snapshot_ts) {
    platform::Guard lock(mu_);
    auto it = active_.find(snapshot_ts);
    if (it == active_.end()) return;  // double-end; tolerate
    if (--it->second == 0) active_.erase(it);
  }

  // GC watermark: the minimum active snapshot timestamp, or the published
  // frontier when no snapshot is active. Any version superseded at or below
  // the watermark is invisible to every present and future snapshot.
  uint64_t Watermark() const {
    platform::Guard lock(mu_);
    if (!active_.empty()) return active_.begin()->first;
    return LastPublished();
  }

  size_t ActiveSnapshots() const {
    platform::Guard lock(mu_);
    size_t n = 0;
    for (const auto& [ts, count] : active_) n += static_cast<size_t>(count);
    return n;
  }

 private:
  std::atomic<uint64_t> next_{0};
  std::atomic<uint64_t> last_published_{0};
  mutable platform::Mutex mu_{"storage/TimestampOracle::mu"};
  // snapshot ts -> number of active snapshot transactions pinned to it.
  std::map<uint64_t, int> active_ MTDB_GUARDED_BY(mu_);
};

}  // namespace mtdb::mvcc

#endif  // MTDB_STORAGE_MVCC_TIMESTAMP_ORACLE_H_
