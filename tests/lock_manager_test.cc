#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/storage/lock_manager.h"

namespace mtdb {
namespace {

LockManager::Options FastTimeout() {
  LockManager::Options options;
  options.lock_timeout_us = 200'000;
  return options;
}

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, "r", LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(2, "r", LockMode::kShared).ok());
  EXPECT_TRUE(lm.Holds(1, "r", LockMode::kShared));
  EXPECT_TRUE(lm.Holds(2, "r", LockMode::kShared));
}

TEST(LockManagerTest, ExclusiveBlocksShared) {
  LockManager lm(FastTimeout());
  ASSERT_TRUE(lm.Acquire(1, "r", LockMode::kExclusive).ok());
  Status s = lm.Acquire(2, "r", LockMode::kShared);
  EXPECT_EQ(s.code(), StatusCode::kLockTimeout);
}

TEST(LockManagerTest, IntentionModesCompatible) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, "t", LockMode::kIntentionShared).ok());
  EXPECT_TRUE(lm.Acquire(2, "t", LockMode::kIntentionExclusive).ok());
  EXPECT_TRUE(lm.Acquire(3, "t", LockMode::kIntentionShared).ok());
}

TEST(LockManagerTest, SharedBlocksIntentionExclusive) {
  LockManager lm(FastTimeout());
  ASSERT_TRUE(lm.Acquire(1, "t", LockMode::kShared).ok());
  EXPECT_EQ(lm.Acquire(2, "t", LockMode::kIntentionExclusive).code(),
            StatusCode::kLockTimeout);
}

TEST(LockManagerTest, ReentrantAcquire) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, "r", LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(1, "r", LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(1, "r", LockMode::kShared).ok());  // covered by X
}

TEST(LockManagerTest, UpgradeSharedToExclusiveWhenAlone) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "r", LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(1, "r", LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Holds(1, "r", LockMode::kExclusive));
}

TEST(LockManagerTest, ReleaseAllUnblocksWaiter) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "r", LockMode::kExclusive).ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    EXPECT_TRUE(lm.Acquire(2, "r", LockMode::kExclusive).ok());
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(granted);
  lm.ReleaseAll(1);
  waiter.join();
  EXPECT_TRUE(granted);
}

TEST(LockManagerTest, ReleaseReadLocksKeepsWriteLocks) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "a", LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(1, "b", LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Acquire(1, "t", LockMode::kIntentionExclusive).ok());
  ASSERT_TRUE(lm.Acquire(1, "t", LockMode::kIntentionShared).ok());
  lm.ReleaseReadLocks(1);
  EXPECT_FALSE(lm.Holds(1, "a", LockMode::kShared));
  EXPECT_TRUE(lm.Holds(1, "b", LockMode::kExclusive));
  EXPECT_TRUE(lm.Holds(1, "t", LockMode::kIntentionExclusive));
  EXPECT_FALSE(lm.Holds(1, "t", LockMode::kIntentionShared));
  // Another txn can now read "a".
  EXPECT_TRUE(lm.Acquire(2, "a", LockMode::kShared).ok());
}

TEST(LockManagerTest, DeadlockDetectedAndVictimIsRequester) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "a", LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Acquire(2, "b", LockMode::kExclusive).ok());
  std::atomic<bool> t1_done{false};
  Status t1_status;
  std::thread t1([&] {
    t1_status = lm.Acquire(1, "b", LockMode::kExclusive);
    t1_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Txn 2 closes the cycle: it must be chosen as the victim immediately.
  Status t2_status = lm.Acquire(2, "a", LockMode::kExclusive);
  EXPECT_EQ(t2_status.code(), StatusCode::kDeadlock);
  EXPECT_GE(lm.deadlock_count(), 1);
  // Releasing txn 2's locks lets txn 1 proceed.
  lm.ReleaseAll(2);
  t1.join();
  EXPECT_TRUE(t1_status.ok());
  lm.ReleaseAll(1);
}

TEST(LockManagerTest, UpgradeDeadlockDetected) {
  // Two S holders both upgrading to X is a classic upgrade deadlock.
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "r", LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(2, "r", LockMode::kShared).ok());
  Status s1;
  std::thread t1([&] { s1 = lm.Acquire(1, "r", LockMode::kExclusive); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Status s2 = lm.Acquire(2, "r", LockMode::kExclusive);
  EXPECT_EQ(s2.code(), StatusCode::kDeadlock);
  lm.ReleaseAll(2);
  t1.join();
  EXPECT_TRUE(s1.ok());
}

TEST(LockManagerTest, FifoFairnessPreventsWriterStarvation) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "r", LockMode::kShared).ok());
  // Writer queues behind the reader.
  Status writer_status;
  std::thread writer(
      [&] { writer_status = lm.Acquire(2, "r", LockMode::kExclusive); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // A new reader must NOT jump the queued writer.
  std::atomic<bool> reader2_granted{false};
  std::thread reader2([&] {
    EXPECT_TRUE(lm.Acquire(3, "r", LockMode::kShared).ok());
    reader2_granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(reader2_granted);
  lm.ReleaseAll(1);
  writer.join();
  EXPECT_TRUE(writer_status.ok());
  lm.ReleaseAll(2);
  reader2.join();
  EXPECT_TRUE(reader2_granted);
}

TEST(LockManagerTest, ThreeWayDeadlockCycle) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "a", LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Acquire(2, "b", LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Acquire(3, "c", LockMode::kExclusive).ok());
  Status s1, s2;
  std::thread t1([&] { s1 = lm.Acquire(1, "b", LockMode::kExclusive); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread t2([&] { s2 = lm.Acquire(2, "c", LockMode::kExclusive); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Status s3 = lm.Acquire(3, "a", LockMode::kExclusive);
  EXPECT_EQ(s3.code(), StatusCode::kDeadlock);
  lm.ReleaseAll(3);
  t2.join();
  EXPECT_TRUE(s2.ok());
  lm.ReleaseAll(2);
  t1.join();
  EXPECT_TRUE(s1.ok());
}

TEST(LockManagerTest, ManyConcurrentDisjointLocks) {
  LockManager lm;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&lm, &failures, t] {
      for (int i = 0; i < 200; ++i) {
        uint64_t txn = static_cast<uint64_t>(t) * 1000 + i;
        std::string resource = std::string("r")
                                   .append(std::to_string(t))
                                   .append("_")
                                   .append(std::to_string(i % 10));
        if (!lm.Acquire(txn, resource, LockMode::kExclusive).ok()) {
          failures++;
        }
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(lm.ActiveLockCount(), 0u);
}

TEST(LockManagerTest, StressConflictingWorkloadMakesProgress) {
  // Random conflicting acquisitions: every operation must terminate with
  // either a grant, a deadlock, or a timeout — no hangs, and the lock table
  // drains afterwards.
  LockManager lm(FastTimeout());
  std::vector<std::thread> threads;
  std::atomic<int> grants{0}, aborts{0};
  std::atomic<uint64_t> next_txn{1};
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        uint64_t txn = next_txn.fetch_add(1);
        bool failed = false;
        for (int k = 0; k < 3; ++k) {
          std::string resource = "shared" + std::to_string((txn * 7 + k) % 5);
          LockMode mode = (txn + k) % 2 == 0 ? LockMode::kShared
                                             : LockMode::kExclusive;
          if (!lm.Acquire(txn, resource, mode).ok()) {
            failed = true;
            break;
          }
        }
        failed ? aborts++ : grants++;
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(grants, 0);
  EXPECT_EQ(lm.ActiveLockCount(), 0u);
}

}  // namespace
}  // namespace mtdb
