#ifndef MTDB_CLUSTER_STRAND_H_
#define MTDB_CLUSTER_STRAND_H_

#include <deque>
#include <functional>
#include <future>
#include <thread>

#include "src/platform/mutex.h"

namespace mtdb {

// A single-threaded FIFO task executor. The cluster controller gives each
// (connection, machine) pair its own strand, which yields exactly the
// per-site operation ordering a real DBMS connection provides: operations of
// one transaction execute in submission order on each machine, while
// different machines proceed independently. This independence is what lets
// an *aggressive* controller acknowledge a write after one replica finishes
// while the same write is still executing (queued) on another replica.
//
// Tasks never overlap (a task's RunAfterTask hand-off may overlap the next
// task). Queued tasks run on the strand's own thread, started when a task
// is first queued: a strand used only through RunIfIdle by callers that
// find it idle never owns a thread.
class Strand {
 public:
  Strand() = default;
  ~Strand();  // drains the queue, then joins

  Strand(const Strand&) = delete;
  Strand& operator=(const Strand&) = delete;

  // Enqueues a task; returns a future for its completion.
  std::future<void> Submit(std::function<void()> task);

  // Enqueues a task without result tracking.
  void SubmitDetached(std::function<void()> task) MTDB_EXCLUDES(mu_);

  // Runs `task` on the calling thread, before returning, when no task is
  // queued or running; otherwise enqueues it behind them like
  // SubmitDetached. Either way it runs after every task submitted before.
  void RunIfIdle(std::function<void()> task) MTDB_EXCLUDES(mu_);

  // Whether the calling thread is `strand`'s own thread, inside one of its
  // queued tasks. Never dereferences `strand`, so a caller may ask about a
  // strand that is gone.
  static bool InTaskOf(const Strand* strand);

  // From inside a queued task (InTaskOf(this)): runs `after` on the
  // strand's thread once the task has returned and the strand no longer
  // counts it as running. A task whose last act wakes a waiter (an
  // in-process RPC reply) hands that act here, so whatever the waiter
  // sends next through RunIfIdle finds the strand idle instead of queueing
  // behind the task's final instructions.
  void RunAfterTask(std::function<void()> after);

  // Blocks until every task submitted so far has run.
  void Drain() MTDB_EXCLUDES(mu_);

 private:
  void Run();
  // Appends `task` and wakes (or first starts) the strand's thread.
  void EnqueueLocked(std::function<void()> task) MTDB_REQUIRES(mu_);

  platform::Mutex mu_{"cluster/Strand::mu"};
  platform::CondVar cv_;  // the strand's thread is its only waiter
  std::deque<std::function<void()>> queue_ MTDB_GUARDED_BY(mu_);
  // A task is executing, on the strand's thread or inline in RunIfIdle.
  bool running_ MTDB_GUARDED_BY(mu_) = false;
  bool stop_ MTDB_GUARDED_BY(mu_) = false;
  // Set by RunAfterTask; only the strand's thread touches it.
  std::function<void()> after_task_;
  std::thread thread_ MTDB_GUARDED_BY(mu_);
};

}  // namespace mtdb

#endif  // MTDB_CLUSTER_STRAND_H_
