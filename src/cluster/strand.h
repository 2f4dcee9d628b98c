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
class Strand {
 public:
  Strand();
  ~Strand();  // drains the queue, then joins

  Strand(const Strand&) = delete;
  Strand& operator=(const Strand&) = delete;

  // Enqueues a task; returns a future for its completion.
  std::future<void> Submit(std::function<void()> task);

  // Enqueues a task without result tracking.
  void SubmitDetached(std::function<void()> task) MTDB_EXCLUDES(mu_);

  // Blocks until every task submitted so far has run.
  void Drain();

  size_t pending() const MTDB_EXCLUDES(mu_);

 private:
  void Run();

  mutable platform::Mutex mu_{"cluster/Strand::mu"};
  platform::CondVar cv_;
  std::deque<std::function<void()>> queue_ MTDB_GUARDED_BY(mu_);
  bool stop_ MTDB_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace mtdb

#endif  // MTDB_CLUSTER_STRAND_H_
