#ifndef MTDB_STORAGE_WAL_LOG_WRITER_H_
#define MTDB_STORAGE_WAL_LOG_WRITER_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/result.h"
#include "src/obs/metrics.h"
#include "src/platform/mutex.h"

namespace mtdb::wal {

// When a committer is released relative to the device sync of its record
// (DESIGN.md §15). The three policies are the ablation points of the
// group-commit study: per-commit is the seed's one-fsync-per-commit
// baseline, group is the pipeline default, async trades a bounded
// durability window for sync-free commit latency.
enum class SyncPolicy {
  // One sync per record: the log thread writes and syncs each record
  // individually, so every committer pays a full device sync — the
  // "commit latency is fsync latency" baseline.
  kPerCommit,
  // Group commit: everything queued while the previous sync was in flight
  // is coalesced into one write+sync, and all of its waiters are released
  // together, in LSN order.
  kGroup,
  // Asynchronous durability: committers are released as soon as their
  // record is handed to the OS; the log thread syncs in the background at
  // most async_max_lag_records behind the write frontier. A crash loses at
  // most that unsynced suffix.
  kAsync,
};

const char* SyncPolicyName(SyncPolicy policy);

struct LogWriterOptions {
  SyncPolicy sync_policy = SyncPolicy::kGroup;

  // kAsync only: background sync once this many records are written but
  // unsynced. Bounds the suffix a crash can lose.
  int64_t async_max_lag_records = 64;

  // Modeled device-sync latency added to every sync, the same simulated-
  // hardware idiom as EngineOptions::cache_miss_penalty_us (the host file
  // system stands in for the disk; a real fsync on it costs ~nothing, so
  // benchmarks inject the latency a log device would charge). 0 = just the
  // host-level flush.
  int64_t sync_delay_us = 0;

  // {machine=} label for the mtdb_wal_* metric series.
  std::string metrics_label;
};

// The group-commit pipeline core: a dedicated log thread behind a bounded
// commit queue.
//
// Appenders enqueue one encoded record and receive its LSN (1-based, dense,
// in file order); committers then call AwaitDurable(lsn), or hand OnDurable
// a callback and move on. The log thread drains the queue, coalesces
// everything it finds into one write+sync, and releases waiters strictly in
// LSN order: the durable frontier advances monotonically and covers a
// prefix of the log, so when AwaitDurable(n) returns, every record with
// LSN <= n is durable too — never a hole.
//
// Thread model: after Open returns, the file is touched ONLY by the log
// thread (single-writer discipline; no lock is held across the sync, which
// is what lets the next group form while the current one flushes). The
// mutex below guards the queue and the LSN frontiers. Any I/O error is
// sticky: it fails every subsequent Append/AwaitDurable, so a dead log can
// never silently acknowledge a commit.
class LogWriter {
 public:
  using Options = LogWriterOptions;

  // Opens (appending) or creates the log file and starts the log thread.
  static Result<std::unique_ptr<LogWriter>> Open(const std::string& path,
                                                 Options options = {});
  // Drains the queue, performs a final sync, joins the log thread.
  ~LogWriter();

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  const std::string& path() const { return path_; }
  const Options& options() const { return options_; }

  // Enqueues one encoded record, written to the file as given, and returns
  // its LSN. Blocks while the queue holds 4096 unwritten records
  // (backpressure). Fails if the log has hit an I/O error.
  Result<uint64_t> Append(std::string record);

  // Blocks until `lsn` is durable under the policy: written+synced for
  // kPerCommit/kGroup, written (handed to the OS) for kAsync. Returns the
  // sticky I/O error if the log died before covering `lsn`.
  Status AwaitDurable(uint64_t lsn);

  // Runs `done` once `lsn` is durable under the policy, with the status
  // AwaitDurable(lsn) would return. Pending callbacks run on the log thread
  // after the write+sync that covers them, in LSN order, with the log mutex
  // released; when `lsn` is already durable (or the log is already dead),
  // `done` runs at once on the calling thread. A sticky I/O error,
  // CrashForTest and the destructor complete every pending callback with a
  // status, so `done` runs exactly once. Keep it short and never wait on
  // this log inside it: the next group's sync waits until it returns.
  using Completion = std::function<void(Status)>;
  void OnDurable(uint64_t lsn, Completion done);

  // Full durability barrier regardless of policy: returns once everything
  // appended so far is written AND synced (DDL, bulk-load tails).
  Status SyncAll();

  // Last assigned LSN (0 = nothing appended yet).
  uint64_t last_appended_lsn() const {
    return appended_.load(std::memory_order_acquire);
  }
  // Highest LSN through which the log is synced.
  uint64_t synced_lsn() const {
    return synced_frontier_.load(std::memory_order_acquire);
  }
  int64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }
  int64_t records_appended() const {
    return records_appended_.load(std::memory_order_relaxed);
  }

  // Test hook simulating a machine crash: stops the log thread WITHOUT the
  // final sync, discards the enqueued-but-unwritten records, and truncates
  // the file to the last-synced offset — the on-disk artifact is exactly
  // what a power cut after the last completed device sync would leave.
  // After this, every Append/AwaitDurable fails with the sticky error.
  void CrashForTest();

 private:
  LogWriter(std::string path, std::FILE* file, Options options);

  void LogThreadMain();
  // One write+sync cycle over `batch`; returns the I/O status. Runs on the
  // log thread with no lock held.
  Status WriteBatch(const std::vector<std::string>& batch, bool sync,
                    int64_t* file_offset_after_sync);
  // Whether the log thread has sync work even with an empty queue
  // (async-lag threshold reached, SyncAll barrier, shutdown tail).
  bool NeedsSyncLocked() const MTDB_REQUIRES(mu_);
  // The frontier AwaitDurable waits on: synced for kPerCommit/kGroup,
  // written for kAsync.
  uint64_t DurableLsnLocked() const MTDB_REQUIRES(mu_);
  // Removes and returns, in LSN order, the completions at or below
  // `through`. The log thread runs them after dropping mu_.
  std::vector<Completion> TakeCompletionsLocked(uint64_t through)
      MTDB_REQUIRES(mu_);

  const std::string path_;
  // Single-writer: owned by the log thread between Open and join (see class
  // comment); the pointer itself is set once and never reassigned until
  // CrashForTest/destruction, after the thread has been joined.
  std::FILE* file_;
  const Options options_;

  platform::Mutex mu_{"storage/wal/LogWriter::mu"};
  platform::CondVar work_cv_;     // wakes the log thread
  platform::CondVar durable_cv_;  // wakes waiters + backpressured appenders
  std::vector<std::string> queue_ MTDB_GUARDED_BY(mu_);
  uint64_t next_lsn_ MTDB_GUARDED_BY(mu_) = 1;
  uint64_t written_lsn_ MTDB_GUARDED_BY(mu_) = 0;
  uint64_t synced_lsn_ MTDB_GUARDED_BY(mu_) = 0;
  // SyncAll barrier target: the log thread syncs until synced_lsn_ covers it.
  uint64_t force_sync_target_ MTDB_GUARDED_BY(mu_) = 0;
  // OnDurable callbacks not yet covered by the durable frontier, by LSN.
  std::multimap<uint64_t, Completion> completions_ MTDB_GUARDED_BY(mu_);
  // Byte offset of the file end at the last completed sync (CrashForTest
  // truncates to this).
  int64_t synced_offset_ MTDB_GUARDED_BY(mu_) = 0;
  // First I/O error, sticky for the life of the writer.
  Status io_status_ MTDB_GUARDED_BY(mu_) = Status::OK();
  bool stop_ MTDB_GUARDED_BY(mu_) = false;
  bool crashed_ MTDB_GUARDED_BY(mu_) = false;

  // Lock-free mirrors for observability getters.
  std::atomic<uint64_t> appended_{0};
  std::atomic<uint64_t> synced_frontier_{0};
  std::atomic<int64_t> syncs_{0};
  std::atomic<int64_t> records_appended_{0};

  // mtdb_wal_* series, resolved once at Open.
  obs::Counter* m_appends_ = nullptr;
  obs::Counter* m_syncs_ = nullptr;
  obs::Counter* m_append_errors_ = nullptr;
  Histogram* m_group_size_ = nullptr;
  Histogram* m_flush_latency_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;

  std::thread log_thread_;
};

}  // namespace mtdb::wal

#endif  // MTDB_STORAGE_WAL_LOG_WRITER_H_
