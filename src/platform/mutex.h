#ifndef MTDB_PLATFORM_MUTEX_H_
#define MTDB_PLATFORM_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/analysis/invariants.h"
#include "src/platform/thread_annotations.h"

namespace mtdb {
namespace platform {

// The platform's locking vocabulary. Everything outside src/platform locks
// through these wrappers (enforced by tools/mtdblint rule raw-mutex); in
// exchange every lock in the system gets two layers of proof:
//
//  1. Compile time — the classes carry Clang thread-safety capability
//     annotations, so members declared MTDB_GUARDED_BY(mu_) are checked on
//     every path of every build with -Wthread-safety (CMake option
//     MTDB_THREAD_SAFETY, gated in CI).
//  2. Run time — acquisitions feed the lockdep-style LockOrderGraph below,
//     which aborts on the *potential* for deadlock (a lock-order inversion),
//     not just on deadlocks a test run happens to hit.

// Runtime lock-order (lockdep-style) checker.
//
// Instrumented mutexes are grouped into *classes* by name — every
// LockManager::mu_ across all engine instances shares one class — and the
// graph records a directed edge A -> B the first time any thread acquires a
// class-B mutex while holding a class-A one. An acquisition whose edge would
// close a cycle is a lock-order inversion: two threads interleaving those
// two paths can deadlock, even if this particular run never does. The
// checker fires on the *potential*, which is what makes it far more
// sensitive than waiting for an actual deadlock under test load.
//
// Violations are routed through ReportViolation("lock-order", ...) with the
// full cycle path; the default handler aborts.
//
// Thread-safe. The per-thread held-lock stack lives in TLS, so only
// acquisitions nested on the same thread produce edges.
class LockOrderGraph {
 public:
  LockOrderGraph() = default;

  LockOrderGraph(const LockOrderGraph&) = delete;
  LockOrderGraph& operator=(const LockOrderGraph&) = delete;

  // Called by Mutex before blocking on the underlying mutex (a real deadlock
  // would otherwise suppress the report). Records edges from every lock
  // class this thread already holds to `name`, reporting a violation if any
  // such edge closes a cycle, then pushes `name` on the thread's held stack.
  void OnAcquire(const std::string& name);

  // Pops the most recent matching entry from the thread's held stack.
  void OnRelease(const std::string& name);

  // Number of distinct ordering edges observed so far.
  size_t EdgeCount() const;

  // True if the graph has recorded edge from -> to.
  bool HasEdge(const std::string& from, const std::string& to) const;

  // Drops all recorded edges (not the TLS held stacks of live guards).
  void Clear();

  // The process-wide graph used by production mutexes.
  static LockOrderGraph& Global();

  // &Global() when the build has invariant checks enabled, else nullptr.
  // Mutex's default constructor argument, so release builds skip all
  // tracking at the cost of a single null check per lock operation.
  static LockOrderGraph* GlobalIfEnabled() {
#if MTDB_INVARIANT_CHECKS_ENABLED
    return &Global();
#else
    return nullptr;
#endif
  }

 private:
  // Returns the cycle path to -> ... -> from if `from` is reachable from
  // `to`, i.e. adding from -> to would close a cycle. Requires mu_ held.
  std::vector<std::string> FindPath(const std::string& from,
                                    const std::string& to) const;

  // The checker's own lock sits below every instrumented mutex and must not
  // recurse into the instrumentation. mtdblint: allow(raw-mutex)
  mutable std::mutex mu_;
  // Keyed by lock-class name, not tenant: bounded by the number of
  // distinct mutex declarations in the code. mtdblint: allow(tenant-map)
  std::map<std::string, std::set<std::string>> edges_;
};

// A std::mutex instrumented with lock-order tracking and annotated as a
// thread-safety capability. Satisfies the C++ Lockable requirements, so it
// composes with std::lock_guard and std::unique_lock in generic code (the
// platform idiom is Guard / UniqueLock below, which carry the scoped
// annotations).
//
// The name identifies the lock *class* (see LockOrderGraph); by convention
// "<area>/<Class>::<member>", e.g. "storage/LockManager::mu". With the
// default graph argument, tracking is active only in builds where
// MTDB_INVARIANT_CHECKS_ENABLED is on; passing an explicit graph (tests)
// always tracks, and an explicit nullptr opts a lock class out — reserved
// for leaf latches on the hottest paths (storage/Table::latch), where
// per-acquisition bookkeeping would dominate sanitizer runs.
class MTDB_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* name,
                 LockOrderGraph* graph = LockOrderGraph::GlobalIfEnabled())
      : name_(name), graph_(graph) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MTDB_ACQUIRE() {
    if (graph_ != nullptr) graph_->OnAcquire(name_);
    mu_.lock();
  }

  bool try_lock() MTDB_TRY_ACQUIRE(true) {
    // Check-before-acquire like lock(): a try_lock that *would* have
    // inverted the order is just as much a latent deadlock when the lock
    // happens to be contended.
    if (graph_ != nullptr) graph_->OnAcquire(name_);
    if (mu_.try_lock()) return true;
    if (graph_ != nullptr) graph_->OnRelease(name_);
    return false;
  }

  void unlock() MTDB_RELEASE() {
    mu_.unlock();
    if (graph_ != nullptr) graph_->OnRelease(name_);
  }

  const char* name() const { return name_; }

 private:
  std::mutex mu_;  // the wrapped implementation. mtdblint: allow(raw-mutex)
  const char* name_;
  LockOrderGraph* graph_;
};

// RAII scope guard over a Mutex (the annotated analogue of std::lock_guard).
class MTDB_SCOPED_CAPABILITY Guard {
 public:
  explicit Guard(Mutex& mu) MTDB_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~Guard() MTDB_RELEASE() { mu_.unlock(); }

  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

 private:
  Mutex& mu_;
};

// RAII lock that can be temporarily released — the annotated analogue of
// std::unique_lock, shaped for condition-variable waits: construct it,
// test the predicate in a while loop around CondVar::Wait, destroy it.
// Ownership is tracked, so callers may unlock()/lock() manually (e.g. to
// drop the lock across an RPC) and the destructor releases only if held.
class MTDB_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) MTDB_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~UniqueLock() MTDB_RELEASE() {
    if (owns_) mu_.unlock();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  // BasicLockable, used by CondVar's std::condition_variable_any and by
  // callers that release the lock around blocking work.
  void lock() MTDB_ACQUIRE() {
    mu_.lock();
    owns_ = true;
  }
  void unlock() MTDB_RELEASE() {
    owns_ = false;
    mu_.unlock();
  }

 private:
  Mutex& mu_;
  bool owns_ = true;
};

// Condition variable paired with Mutex/UniqueLock. Deliberately predicate-
// free: the thread-safety analysis cannot see into a predicate lambda (it
// would warn on every guarded member the lambda reads), so waits are written
// as explicit loops in the caller, where the analysis can see the lock:
//
//   UniqueLock lock(mu_);
//   while (!ready_) cv_.Wait(lock);
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // All waits release `lock` while blocked and reacquire before returning,
  // so the caller's capability set is unchanged (which is why these carry no
  // acquire/release annotations).
  void Wait(UniqueLock& lock) { cv_.wait(lock); }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      UniqueLock& lock, const std::chrono::time_point<Clock, Duration>& tp) {
    return cv_.wait_until(lock, tp);
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(UniqueLock& lock,
                         const std::chrono::duration<Rep, Period>& d) {
    return cv_.wait_for(lock, d);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  // condition_variable_any because it waits on UniqueLock (BasicLockable),
  // not std::unique_lock<std::mutex>. mtdblint: allow(raw-mutex)
  std::condition_variable_any cv_;
};

// std::shared_mutex instrumented and annotated like Mutex. Shared and
// exclusive acquisitions both feed the lock-order graph (a reader holding A
// while taking B still deadlocks against a writer taking B then A).
class MTDB_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(
      const char* name,
      LockOrderGraph* graph = LockOrderGraph::GlobalIfEnabled())
      : name_(name), graph_(graph) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() MTDB_ACQUIRE() {
    if (graph_ != nullptr) graph_->OnAcquire(name_);
    mu_.lock();
  }
  void unlock() MTDB_RELEASE() {
    mu_.unlock();
    if (graph_ != nullptr) graph_->OnRelease(name_);
  }
  void lock_shared() MTDB_ACQUIRE_SHARED() {
    if (graph_ != nullptr) graph_->OnAcquire(name_);
    mu_.lock_shared();
  }
  void unlock_shared() MTDB_RELEASE_SHARED() {
    mu_.unlock_shared();
    if (graph_ != nullptr) graph_->OnRelease(name_);
  }

  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;  // wrapped implementation. mtdblint: allow(raw-mutex)
  const char* name_;
  LockOrderGraph* graph_;
};

// Exclusive (writer) RAII guard over a SharedMutex.
class MTDB_SCOPED_CAPABILITY WriterGuard {
 public:
  explicit WriterGuard(SharedMutex& mu) MTDB_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterGuard() MTDB_RELEASE() { mu_.unlock(); }

  WriterGuard(const WriterGuard&) = delete;
  WriterGuard& operator=(const WriterGuard&) = delete;

 private:
  SharedMutex& mu_;
};

// Shared (reader) RAII guard over a SharedMutex.
class MTDB_SCOPED_CAPABILITY ReaderGuard {
 public:
  explicit ReaderGuard(SharedMutex& mu) MTDB_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderGuard() MTDB_RELEASE() { mu_.unlock_shared(); }

  ReaderGuard(const ReaderGuard&) = delete;
  ReaderGuard& operator=(const ReaderGuard&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace platform
}  // namespace mtdb

#endif  // MTDB_PLATFORM_MUTEX_H_
