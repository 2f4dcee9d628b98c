#include "src/storage/wal/log_writer.h"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <utility>

#include "src/common/clock.h"
#include "src/common/logging.h"

namespace mtdb::wal {

namespace {
// Bound on enqueued-but-unwritten records; appenders block when full
// (backpressure instead of unbounded queue growth).
constexpr size_t kMaxQueueRecords = 4096;
}  // namespace

const char* SyncPolicyName(SyncPolicy policy) {
  switch (policy) {
    case SyncPolicy::kPerCommit:
      return "per_commit";
    case SyncPolicy::kGroup:
      return "group";
    case SyncPolicy::kAsync:
      return "async";
  }
  return "unknown";
}

Result<std::unique_ptr<LogWriter>> LogWriter::Open(const std::string& path,
                                                   Options options) {
  // Append mode: an existing log (recovery restart) keeps its prefix; the
  // writer's LSNs are per-process, counting records appended this run.
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::Unavailable("wal: cannot open log file " + path + ": " +
                               std::strerror(errno));
  }
  return std::unique_ptr<LogWriter>(
      new LogWriter(path, file, std::move(options)));
}

LogWriter::LogWriter(std::string path, std::FILE* file, Options options)
    : path_(std::move(path)), file_(file), options_(std::move(options)) {
  {
    // The opened file may be non-empty (restart over an existing log):
    // everything already on disk counts as synced for CrashForTest's
    // truncate-to-last-sync semantics.
    platform::Guard guard(mu_);
    long pos = std::ftell(file_);  // NOLINT(google-runtime-int): ftell API
    synced_offset_ = pos < 0 ? 0 : static_cast<int64_t>(pos);
  }
  auto& reg = obs::MetricsRegistry::Global();
  const obs::MetricLabels labels{.machine = options_.metrics_label};
  m_appends_ = reg.GetCounter("mtdb_wal_appends_total", labels);
  m_syncs_ = reg.GetCounter("mtdb_wal_syncs_total", labels);
  m_append_errors_ = reg.GetCounter("mtdb_wal_append_errors_total", labels);
  m_group_size_ = reg.GetHistogram("mtdb_wal_group_size", labels);
  m_flush_latency_ = reg.GetHistogram("mtdb_wal_flush_latency_us", labels);
  m_queue_depth_ = reg.GetGauge("mtdb_wal_queue_depth", labels);
  log_thread_ = std::thread([this] { LogThreadMain(); });
}

LogWriter::~LogWriter() {
  {
    platform::Guard guard(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  if (log_thread_.joinable()) log_thread_.join();
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Result<uint64_t> LogWriter::Append(std::string record) {
  uint64_t lsn = 0;
  {
    platform::UniqueLock lock(mu_);
    // Backpressure: a full queue means the log thread is behind; block on
    // durable_cv_, which the log thread signals after every drained batch.
    while (io_status_.ok() && !stop_ &&
           queue_.size() >= kMaxQueueRecords) {
      durable_cv_.Wait(lock);
    }
    if (!io_status_.ok()) return io_status_;
    if (stop_) return Status::Unavailable("wal: log writer shut down");
    lsn = next_lsn_++;
    queue_.push_back(std::move(record));
    appended_.store(lsn, std::memory_order_release);
    if (m_queue_depth_ != nullptr) {
      m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
  }
  work_cv_.NotifyOne();
  obs::Increment(m_appends_);
  records_appended_.fetch_add(1, std::memory_order_relaxed);
  return lsn;
}

Status LogWriter::AwaitDurable(uint64_t lsn) {
  platform::UniqueLock lock(mu_);
  while (io_status_.ok() && DurableLsnLocked() < lsn) {
    durable_cv_.Wait(lock);
  }
  // The frontier is a prefix: covering `lsn` covers everything below it.
  return io_status_;
}

void LogWriter::OnDurable(uint64_t lsn, Completion done) {
  Status status;
  {
    platform::Guard guard(mu_);
    if (io_status_.ok() && DurableLsnLocked() < lsn) {
      completions_.emplace(lsn, std::move(done));
      return;
    }
    status = io_status_;
  }
  done(status);
}

Status LogWriter::SyncAll() {
  platform::UniqueLock lock(mu_);
  const uint64_t target = next_lsn_ - 1;
  if (target > force_sync_target_) force_sync_target_ = target;
  work_cv_.NotifyOne();
  while (io_status_.ok() && synced_lsn_ < target) {
    durable_cv_.Wait(lock);
  }
  return io_status_;
}

void LogWriter::CrashForTest() {
  int64_t keep_bytes = 0;
  {
    platform::Guard guard(mu_);
    stop_ = true;
    crashed_ = true;
    // Enqueued-but-unwritten records vanish, exactly as if power was cut
    // before the log thread got to them.
    queue_.clear();
    if (io_status_.ok()) {
      io_status_ = Status::Unavailable("wal: simulated crash");
    }
  }
  work_cv_.NotifyAll();
  durable_cv_.NotifyAll();
  if (log_thread_.joinable()) log_thread_.join();
  {
    platform::Guard guard(mu_);
    keep_bytes = synced_offset_;
  }
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  // Written-but-unsynced bytes are in the OS page cache a power cut never
  // persisted: drop them so the on-disk artifact is the last completed sync.
  if (truncate(path_.c_str(), static_cast<off_t>(keep_bytes)) != 0) {
    MTDB_LOG(kError) << "wal: CrashForTest truncate(" << path_ << ", "
                     << keep_bytes << ") failed: " << std::strerror(errno);
  }
}

uint64_t LogWriter::DurableLsnLocked() const {
  // Async durability releases a record once it is handed to the OS; the
  // background sync cadence bounds what a crash can lose.
  return options_.sync_policy == SyncPolicy::kAsync ? written_lsn_
                                                    : synced_lsn_;
}

std::vector<LogWriter::Completion> LogWriter::TakeCompletionsLocked(
    uint64_t through) {
  std::vector<Completion> due;
  auto end = completions_.upper_bound(through);
  for (auto it = completions_.begin(); it != end; ++it) {
    due.push_back(std::move(it->second));
  }
  completions_.erase(completions_.begin(), end);
  return due;
}

bool LogWriter::NeedsSyncLocked() const {
  if (synced_lsn_ >= written_lsn_) return false;
  if (force_sync_target_ > synced_lsn_) return true;
  if (stop_) return true;  // shutdown tail: everything written gets synced
  switch (options_.sync_policy) {
    case SyncPolicy::kPerCommit:
    case SyncPolicy::kGroup:
      return true;
    case SyncPolicy::kAsync:
      return written_lsn_ - synced_lsn_ >=
             static_cast<uint64_t>(options_.async_max_lag_records);
  }
  return true;
}

Status LogWriter::WriteBatch(const std::vector<std::string>& batch, bool sync,
                             int64_t* file_offset_after_sync) {
  for (const std::string& record : batch) {
    if (std::fwrite(record.data(), 1, record.size(), file_) != record.size()) {
      return Status::Unavailable("wal: write failed on " + path_ + ": " +
                                 std::strerror(errno));
    }
  }
  if (!sync) return Status::OK();
  if (std::fflush(file_) != 0) {
    return Status::Unavailable("wal: sync failed on " + path_ + ": " +
                               std::strerror(errno));
  }
  if (options_.sync_delay_us > 0) {
    // Modeled log-device sync latency (see LogWriterOptions::sync_delay_us).
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.sync_delay_us));
  }
  long pos = std::ftell(file_);  // NOLINT(google-runtime-int): ftell API
  if (pos >= 0) *file_offset_after_sync = static_cast<int64_t>(pos);
  return Status::OK();
}

void LogWriter::LogThreadMain() {
  platform::UniqueLock lock(mu_);
  while (true) {
    while (queue_.empty() && !NeedsSyncLocked() && !stop_) {
      work_cv_.Wait(lock);
    }
    if (crashed_) break;
    if (stop_ && queue_.empty() && !NeedsSyncLocked()) break;

    // Take the batch: the whole queue for group/async, one record for
    // per-commit (each record pays its own sync — the ablation baseline).
    std::vector<std::string> batch;
    if (options_.sync_policy == SyncPolicy::kPerCommit && !queue_.empty()) {
      batch.push_back(std::move(queue_.front()));
      queue_.erase(queue_.begin());
    } else {
      batch.swap(queue_);
    }
    if (m_queue_depth_ != nullptr) {
      m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
    const uint64_t batch_last_lsn = written_lsn_ + batch.size();
    // Decide the sync with the batch already counted as written, so the
    // async-lag threshold sees the post-write frontier.
    const uint64_t written_after = batch_last_lsn;
    bool sync = false;
    if (options_.sync_policy == SyncPolicy::kAsync) {
      sync = stop_ || force_sync_target_ > synced_lsn_ ||
             written_after - synced_lsn_ >=
                 static_cast<uint64_t>(options_.async_max_lag_records);
    } else {
      sync = true;
    }

    // I/O with the lock dropped: the next group forms behind this flush.
    lock.unlock();
    const int64_t start_us = NowMicros();
    int64_t offset_after_sync = -1;
    Status io = WriteBatch(batch, sync, &offset_after_sync);
    if (io.ok() && sync) {
      syncs_.fetch_add(1, std::memory_order_relaxed);
      obs::Increment(m_syncs_);
      // Group size = records made durable by this sync: the batch plus any
      // earlier written-but-unsynced records it carries over the line.
      obs::Observe(m_flush_latency_, NowMicros() - start_us);
    }
    lock.lock();

    if (!io.ok()) {
      if (io_status_.ok()) io_status_ = io;
      obs::Increment(m_append_errors_,
                     static_cast<int64_t>(batch.size()));
      MTDB_LOG(kError) << "wal: log thread I/O failure: " << io.ToString();
      durable_cv_.NotifyAll();
      // Sticky failure: stop consuming. Appenders and waiters all see
      // io_status_; nothing further can be acknowledged.
      break;
    }

    written_lsn_ = batch_last_lsn;
    if (sync) {
      obs::Observe(m_group_size_,
                   static_cast<int64_t>(written_lsn_ - synced_lsn_));
      synced_lsn_ = written_lsn_;
      synced_frontier_.store(synced_lsn_, std::memory_order_release);
      if (offset_after_sync >= 0) synced_offset_ = offset_after_sync;
    }
    durable_cv_.NotifyAll();
    // The completions this batch made durable, with the status a waiter
    // would see (a crash racing the batch fails them like AwaitDurable).
    std::vector<Completion> due = TakeCompletionsLocked(DurableLsnLocked());
    if (!due.empty()) {
      const Status status = io_status_;
      lock.unlock();
      for (Completion& done : due) done(status);
      lock.lock();
    }
  }
  // The thread is done, so nothing pending will become durable: a dead log
  // hands its error to every callback, a stopped one says it shut down.
  std::vector<Completion> orphans =
      TakeCompletionsLocked(std::numeric_limits<uint64_t>::max());
  const Status status = io_status_.ok()
                            ? Status::Unavailable("wal: log writer shut down")
                            : io_status_;
  lock.unlock();
  for (Completion& done : orphans) done(status);
}

}  // namespace mtdb::wal
