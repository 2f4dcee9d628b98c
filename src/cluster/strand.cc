#include "src/cluster/strand.h"

#include <exception>
#include <string>

#include "src/analysis/invariants.h"
#include "src/obs/metrics.h"

namespace mtdb {

namespace {

// One gauge across all strands: the aggregate backlog is what signals an
// overloaded cluster.
obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("mtdb_strand_queue_depth", {});
  return gauge;
}

// A throwing detached task used to terminate the process with no indication
// of where it came from. Route it through the violation handler instead,
// which aborts loudly (or records it in tests).
void RunTask(const std::function<void()>& task) {
  try {
    task();
  } catch (const std::exception& e) {
    analysis::ReportViolation("strand",
                              std::string("strand task threw: ") + e.what());
  } catch (...) {
    analysis::ReportViolation("strand",
                              "strand task threw a non-std exception");
  }
}

// The strand whose queued task this thread is running, if any.
thread_local const Strand* t_task_of = nullptr;

}  // namespace

Strand::~Strand() {
  std::thread thread;
  {
    platform::Guard lock(mu_);
    stop_ = true;
    thread = std::move(thread_);
  }
  cv_.NotifyAll();
  if (thread.joinable()) thread.join();
}

void Strand::Run() {
  platform::UniqueLock lock(mu_);
  while (true) {
    while (running_ || (queue_.empty() && !stop_)) cv_.Wait(lock);
    if (queue_.empty()) return;  // stopped and drained
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    running_ = true;
    lock.unlock();
    obs::GaugeAdd(QueueDepthGauge(), -1);
    t_task_of = this;
    RunTask(task);
    t_task_of = nullptr;
    std::function<void()> after = std::move(after_task_);
    after_task_ = nullptr;
    lock.lock();
    running_ = false;
    if (after) {
      // The strand is idle from here: a RunIfIdle caller may run its task
      // inline while this one finishes; queued work waits for the loop.
      lock.unlock();
      RunTask(after);
      lock.lock();
    }
  }
}

bool Strand::InTaskOf(const Strand* strand) {
  return strand != nullptr && t_task_of == strand;
}

void Strand::RunAfterTask(std::function<void()> after) {
  after_task_ = std::move(after);
}

std::future<void> Strand::Submit(std::function<void()> task) {
  auto promise = std::make_shared<std::promise<void>>();
  std::future<void> future = promise->get_future();
  SubmitDetached([task = std::move(task), promise]() mutable {
    // The promise must resolve even if the task throws, or Drain()/waiters
    // would hang; the rethrow lets Run() report the violation.
    try {
      task();
    } catch (...) {
      promise->set_value();
      throw;
    }
    promise->set_value();
  });
  return future;
}

void Strand::SubmitDetached(std::function<void()> task) {
  platform::Guard lock(mu_);
  EnqueueLocked(std::move(task));
}

void Strand::EnqueueLocked(std::function<void()> task) {
  queue_.push_back(std::move(task));
  obs::GaugeAdd(QueueDepthGauge(), 1);
  if (!thread_.joinable()) {
    thread_ = std::thread([this] { Run(); });
  } else if (!running_) {
    // While a task runs, whoever runs it looks at the queue when it ends.
    cv_.NotifyOne();
  }
}

void Strand::RunIfIdle(std::function<void()> task) {
  {
    platform::Guard lock(mu_);
    if (running_ || !queue_.empty()) {
      EnqueueLocked(std::move(task));
      return;
    }
    running_ = true;
  }
  RunTask(task);
  bool wake = false;
  {
    platform::Guard lock(mu_);
    running_ = false;
    // Only work queued behind this run needs the strand's thread; waking it
    // after every inline run would cost the context switch this path exists
    // to save.
    wake = !queue_.empty();
  }
  if (wake) cv_.NotifyOne();
}

void Strand::Drain() {
  {
    platform::Guard lock(mu_);
    if (!running_ && queue_.empty()) return;
  }
  Submit([] {}).wait();
}

}  // namespace mtdb
