#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/analysis/invariants.h"
#include "src/cluster/strand.h"
#include "src/common/random.h"
#include "src/storage/buffer_cache.h"

namespace mtdb {
namespace {

TEST(StrandTest, TasksRunInSubmissionOrder) {
  Strand strand;
  std::vector<int> order;
  std::mutex mu;
  for (int i = 0; i < 100; ++i) {
    strand.SubmitDetached([&order, &mu, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
  }
  strand.Drain();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(StrandTest, SubmitReturnsCompletionFuture) {
  Strand strand;
  std::atomic<bool> ran{false};
  auto future = strand.Submit([&ran] { ran = true; });
  future.wait();
  EXPECT_TRUE(ran);
}

TEST(StrandTest, DrainWaitsForEarlierWork) {
  Strand strand;
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) {
    strand.SubmitDetached([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      done++;
    });
  }
  strand.Drain();
  EXPECT_EQ(done, 10);
}

TEST(StrandTest, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    Strand strand;
    for (int i = 0; i < 20; ++i) {
      strand.SubmitDetached([&done] { done++; });
    }
  }
  EXPECT_EQ(done, 20);
}

TEST(StrandTest, DetachedTaskExceptionSurfacesAsViolation) {
  std::vector<analysis::InvariantViolation> violations;
  {
    analysis::ScopedViolationRecorder recorder(&violations);
    Strand strand;
    std::atomic<int> done{0};
    strand.SubmitDetached([] { throw std::runtime_error("task boom"); });
    // The strand survives the throw and keeps executing later tasks in
    // order (the exception must not kill the worker or skip the queue).
    strand.SubmitDetached([&done] { done++; });
    strand.Drain();
    EXPECT_EQ(done, 1);
  }
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].checker, "strand");
  EXPECT_NE(violations[0].detail.find("task boom"), std::string::npos);
}

TEST(StrandTest, ThrowingSubmitStillResolvesItsFuture) {
  std::vector<analysis::InvariantViolation> violations;
  {
    analysis::ScopedViolationRecorder recorder(&violations);
    Strand strand;
    auto future = strand.Submit([] { throw std::runtime_error("sync boom"); });
    // Must not hang: the promise resolves even though the task threw.
    future.wait();
    strand.Drain();
  }
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].detail.find("sync boom"), std::string::npos);
}

TEST(StrandTest, NonStdExceptionIsReportedToo) {
  std::vector<analysis::InvariantViolation> violations;
  {
    analysis::ScopedViolationRecorder recorder(&violations);
    Strand strand;
    strand.SubmitDetached([] { throw 42; });  // NOLINT
    strand.Drain();
  }
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].detail.find("non-std"), std::string::npos);
}

TEST(StrandTest, ConcurrentSubmittersAllExecute) {
  Strand strand;
  std::atomic<int> executed{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&strand, &executed] {
      for (int i = 0; i < 50; ++i) {
        strand.SubmitDetached([&executed] { executed++; });
      }
    });
  }
  for (auto& t : submitters) t.join();
  strand.Drain();
  EXPECT_EQ(executed, 200);
}

TEST(StrandTest, RunAfterTaskRunsOnceTheStrandIsIdle) {
  std::promise<void> after_started;
  std::promise<void> release_after;
  std::shared_future<void> release = release_after.get_future().share();
  std::atomic<bool> saw_own_task{false};
  // Declared last: it joins its thread before the state above goes.
  Strand strand;
  strand.SubmitDetached([&] {
    saw_own_task = Strand::InTaskOf(&strand);
    strand.RunAfterTask([&] {
      after_started.set_value();
      release.wait();
    });
  });
  after_started.get_future().wait();
  EXPECT_TRUE(saw_own_task.load());
  EXPECT_FALSE(Strand::InTaskOf(&strand));
  // The hand-off is still running, yet the strand counts as idle: the next
  // RunIfIdle runs on this thread instead of queueing behind it.
  std::thread::id ran_on;
  strand.RunIfIdle([&ran_on] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  release_after.set_value();
}

TEST(StrandTest, RunIfIdleRunsOnCallerAndKeepsFifo) {
  Strand strand;
  // An idle strand runs the task on the caller's thread, before returning.
  std::thread::id ran_on;
  strand.RunIfIdle([&ran_on] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());

  // Four callers race RunIfIdle against SubmitDetached on one strand.
  constexpr int kThreads = 4;
  constexpr int kTasksPerThread = 200;
  struct Ran {
    int task;
    std::thread::id thread;
    bool inline_candidate;  // submitted through RunIfIdle
  };
  std::mutex mu;
  std::vector<std::vector<Ran>> ran(kThreads);
  std::vector<std::thread::id> callers(kThreads);
  std::atomic<int> running{0};
  std::atomic<int> overlaps{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      callers[t] = std::this_thread::get_id();
      Random rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kTasksPerThread; ++i) {
        bool via_run_if_idle = rng.Uniform(4) != 0;
        auto task = [&, t, i, via_run_if_idle] {
          if (running.fetch_add(1) != 0) overlaps.fetch_add(1);
          {
            std::lock_guard<std::mutex> lock(mu);
            ran[t].push_back({i, std::this_thread::get_id(), via_run_if_idle});
          }
          running.fetch_sub(1);
        };
        if (via_run_if_idle) {
          strand.RunIfIdle(task);
        } else {
          strand.SubmitDetached(task);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  strand.Drain();

  EXPECT_EQ(overlaps.load(), 0) << "two strand tasks ran at once";
  int inline_runs = 0;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(ran[t].size(), static_cast<size_t>(kTasksPerThread));
    for (int i = 0; i < kTasksPerThread; ++i) {
      const Ran& r = ran[t][i];
      EXPECT_EQ(r.task, i) << "caller " << t << " lost its submission order";
      for (int other = 0; other < kThreads; ++other) {
        if (r.thread != callers[other]) continue;
        // A task runs on a caller's thread only inline, in its own
        // caller's RunIfIdle.
        EXPECT_EQ(other, t);
        EXPECT_TRUE(r.inline_candidate);
        ++inline_runs;
      }
    }
  }
  EXPECT_GT(inline_runs, 0);
}

TEST(BufferCacheTest, DisabledCacheAlwaysHits) {
  BufferCache cache(0);
  for (uint64_t p = 0; p < 100; ++p) EXPECT_TRUE(cache.Touch(p));
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 1.0);
}

TEST(BufferCacheTest, ColdMissThenWarmHit) {
  BufferCache cache(4);
  EXPECT_FALSE(cache.Touch(1));
  EXPECT_TRUE(cache.Touch(1));
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(BufferCacheTest, LruEvictsLeastRecentlyUsed) {
  BufferCache cache(2);
  cache.Touch(1);
  cache.Touch(2);
  cache.Touch(1);       // 1 is now most recent
  cache.Touch(3);       // evicts 2
  EXPECT_TRUE(cache.Touch(1));
  EXPECT_TRUE(cache.Touch(3));
  EXPECT_FALSE(cache.Touch(2));  // was evicted
}

TEST(BufferCacheTest, CapacityIsRespected) {
  BufferCache cache(8);
  for (uint64_t p = 0; p < 100; ++p) cache.Touch(p);
  EXPECT_EQ(cache.Size(), 8u);
}

TEST(BufferCacheTest, WorkingSetLargerThanPoolThrashes) {
  BufferCache cache(10);
  // Cyclic access over 20 pages with LRU: every access misses.
  for (int round = 0; round < 5; ++round) {
    for (uint64_t p = 0; p < 20; ++p) cache.Touch(p);
  }
  EXPECT_EQ(cache.hits(), 0);
}

TEST(BufferCacheTest, WorkingSetWithinPoolAllHitsAfterWarmup) {
  BufferCache cache(32);
  for (uint64_t p = 0; p < 20; ++p) cache.Touch(p);  // warmup: 20 misses
  for (int round = 0; round < 5; ++round) {
    for (uint64_t p = 0; p < 20; ++p) EXPECT_TRUE(cache.Touch(p));
  }
  EXPECT_EQ(cache.misses(), 20);
}

TEST(BufferCacheTest, ConcurrentTouchesAreSafe) {
  BufferCache cache(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      Random rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 2000; ++i) cache.Touch(rng.Uniform(128));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.hits() + cache.misses(), 8000);
  EXPECT_LE(cache.Size(), 64u);
}

}  // namespace
}  // namespace mtdb
