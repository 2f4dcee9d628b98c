// Group-commit WAL pipeline tests (DESIGN.md §15): LSN-ordered waiter
// release under concurrent committers, the OnDurable completion contract,
// flush coalescing across 2PC PREPAREs, the async policy's bounded-loss
// contract, crash-artifact recovery, and the durability-error path through
// Engine::Commit.
// Runs in the TSan tier (label "wal") — the pipeline is exactly the kind
// of cross-thread handoff the sanitizer exists for.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/obs/metrics.h"
#include "src/platform/mutex.h"
#include "src/storage/engine.h"
#include "src/storage/wal/log_writer.h"
#include "src/storage/wal/wal.h"

namespace mtdb {
namespace {

class WalGroupCommitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    test_name_ = ::testing::UnitTest::GetInstance()->current_test_info()->name();
    path_ = std::filesystem::temp_directory_path() /
            ("mtdb_wal_gc_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + test_name_);
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  EngineOptions EngineOptionsFor(wal::SyncPolicy policy,
                                 int64_t async_max_lag = 64) {
    EngineOptions options;
    options.wal_path = path_.string();
    options.wal_sync_policy = policy;
    options.wal_async_max_lag_records = async_max_lag;
    return options;
  }

  TableSchema ItemsSchema() {
    return TableSchema("items",
                       {{"id", ColumnType::kInt64, true},
                        {"name", ColumnType::kString, false},
                        {"price", ColumnType::kDouble, false}},
                       0);
  }

  // Unique metrics label per test so registry series never cross-talk.
  std::string Site() const { return "wal_gc_" + test_name_; }

  std::string test_name_;
  std::filesystem::path path_;
};

// N concurrent appenders on the raw LogWriter: every AwaitDurable return
// must find the synced frontier at or past its own LSN (release strictly
// follows the durable prefix), and the sync count must come in well under
// the append count (committers actually share flushes).
TEST_F(WalGroupCommitTest, LsnOrderedReleaseUnderConcurrentCommitters) {
  constexpr int kThreads = 8;
  constexpr int kAppendsPerThread = 25;
  wal::LogWriterOptions options;
  options.sync_policy = wal::SyncPolicy::kGroup;
  options.sync_delay_us = 200;  // modeled device sync, forces overlap
  auto writer_or = wal::LogWriter::Open(path_.string(), options);
  ASSERT_TRUE(writer_or.ok()) << writer_or.status().ToString();
  std::unique_ptr<wal::LogWriter> writer = std::move(*writer_or);

  std::atomic<bool> ordering_violated{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAppendsPerThread; ++i) {
        auto lsn_or = writer->Append("REC t" + std::to_string(t) + " i" +
                                     std::to_string(i));
        ASSERT_TRUE(lsn_or.ok());
        ASSERT_TRUE(writer->AwaitDurable(*lsn_or).ok());
        // The durable frontier is a prefix: once released, our LSN (and
        // everything below it) must be covered.
        if (writer->synced_lsn() < *lsn_or) ordering_violated.store(true);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_FALSE(ordering_violated.load());
  EXPECT_EQ(writer->records_appended(), kThreads * kAppendsPerThread);
  EXPECT_EQ(writer->synced_lsn(),
            static_cast<uint64_t>(kThreads * kAppendsPerThread));
  // Coalescing: far fewer device syncs than records. With 8 threads
  // overlapping a 200µs sync, a 1:1 ratio would mean no batching at all.
  EXPECT_LT(writer->syncs(), kThreads * kAppendsPerThread);
  EXPECT_GE(writer->syncs(), 1);
}

// One OnDurable callback's view of the log when it ran.
struct CompletionRecord {
  uint64_t lsn = 0;
  uint64_t synced_at_run = 0;
  std::thread::id thread;
  Status status;
};

// Completions registered out of LSN order run in LSN order, on the log
// thread, each after the sync that covers its record.
TEST_F(WalGroupCommitTest, CompletionsRunInLsnOrderAfterTheirSync) {
  constexpr int kRecords = 5;
  wal::LogWriterOptions options;
  options.sync_policy = wal::SyncPolicy::kGroup;
  options.sync_delay_us = 200'000;  // every record is pending when registered
  auto writer_or = wal::LogWriter::Open(path_.string(), options);
  ASSERT_TRUE(writer_or.ok()) << writer_or.status().ToString();
  std::unique_ptr<wal::LogWriter> writer = std::move(*writer_or);

  std::vector<uint64_t> lsns;
  for (int i = 0; i < kRecords; ++i) {
    auto lsn_or = writer->Append("REC " + std::to_string(i));
    ASSERT_TRUE(lsn_or.ok());
    lsns.push_back(*lsn_or);
  }
  platform::Mutex mu{"test/completions"};
  std::vector<CompletionRecord> ran;
  std::promise<void> all_ran;
  for (auto it = lsns.rbegin(); it != lsns.rend(); ++it) {
    const uint64_t lsn = *it;
    writer->OnDurable(lsn, [&, lsn](Status status) {
      platform::Guard lock(mu);
      ran.push_back({lsn, writer->synced_lsn(), std::this_thread::get_id(),
                     status});
      if (ran.size() == kRecords) all_ran.set_value();
    });
  }
  all_ran.get_future().wait();

  platform::Guard lock(mu);
  ASSERT_EQ(ran.size(), static_cast<size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(ran[i].lsn, lsns[i]) << "completion " << i << " out of order";
    EXPECT_GE(ran[i].synced_at_run, ran[i].lsn)
        << "completion ran before its record was synced";
    EXPECT_NE(ran[i].thread, std::this_thread::get_id());
    EXPECT_TRUE(ran[i].status.ok()) << ran[i].status.ToString();
  }
}

TEST_F(WalGroupCommitTest, CompletionRunsAtOnceWhenAlreadyDurable) {
  auto writer_or = wal::LogWriter::Open(path_.string());
  ASSERT_TRUE(writer_or.ok()) << writer_or.status().ToString();
  std::unique_ptr<wal::LogWriter> writer = std::move(*writer_or);
  auto lsn_or = writer->Append("REC");
  ASSERT_TRUE(lsn_or.ok());
  ASSERT_TRUE(writer->AwaitDurable(*lsn_or).ok());

  bool ran = false;
  std::thread::id ran_on;
  writer->OnDurable(*lsn_or, [&](Status status) {
    EXPECT_TRUE(status.ok()) << status.ToString();
    ran = true;
    ran_on = std::this_thread::get_id();
  });
  EXPECT_TRUE(ran) << "a durable LSN's completion must run before OnDurable "
                      "returns";
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

// A crash fails every pending completion with the sticky error, and a
// completion registered afterwards hears it at once.
TEST_F(WalGroupCommitTest, CrashFailsPendingCompletions) {
  wal::LogWriterOptions options;
  options.sync_delay_us = 300'000;
  auto writer_or = wal::LogWriter::Open(path_.string(), options);
  ASSERT_TRUE(writer_or.ok()) << writer_or.status().ToString();
  std::unique_ptr<wal::LogWriter> writer = std::move(*writer_or);
  std::vector<Status> statuses(3, Status::OK());
  std::atomic<int> ran{0};
  for (int i = 0; i < 3; ++i) {
    auto lsn_or = writer->Append("REC " + std::to_string(i));
    ASSERT_TRUE(lsn_or.ok());
    writer->OnDurable(*lsn_or, [&, i](Status status) {
      statuses[i] = status;
      ran.fetch_add(1);
    });
  }
  writer->CrashForTest();
  ASSERT_EQ(ran.load(), 3) << "CrashForTest left a completion pending";
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(statuses[i].code(), StatusCode::kUnavailable)
        << "completion " << i << ": " << statuses[i].ToString();
  }
  Status late = Status::OK();
  writer->OnDurable(1, [&](Status status) { late = status; });
  EXPECT_EQ(late.code(), StatusCode::kUnavailable);
}

// Destroying the writer syncs what was appended and completes every
// pending callback before the destructor returns.
TEST_F(WalGroupCommitTest, DestructionCompletesPendingCallbacks) {
  wal::LogWriterOptions options;
  options.sync_delay_us = 50'000;
  auto writer_or = wal::LogWriter::Open(path_.string(), options);
  ASSERT_TRUE(writer_or.ok()) << writer_or.status().ToString();
  std::unique_ptr<wal::LogWriter> writer = std::move(*writer_or);
  std::atomic<int> ok{0};
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    auto lsn_or = writer->Append("REC " + std::to_string(i));
    ASSERT_TRUE(lsn_or.ok());
    writer->OnDurable(*lsn_or, [&](Status status) {
      if (status.ok()) ok.fetch_add(1);
      ran.fetch_add(1);
    });
  }
  writer.reset();
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(ok.load(), 4) << "the final sync covers every appended record";
}

// The engine's no-wait forms hand back the record's LSN: the vote and the
// commit return before their records are durable, and the blocking forms
// are the same calls plus the wait.
TEST_F(WalGroupCommitTest, EngineHandsBackTheLsnInsteadOfWaiting) {
  EngineOptions options = EngineOptionsFor(wal::SyncPolicy::kGroup);
  options.wal_sync_delay_us = 300'000;
  Engine engine(Site(), options);
  ASSERT_TRUE(engine.CreateDatabase("db").ok());
  ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
  ASSERT_TRUE(engine.Begin(1).ok());
  ASSERT_TRUE(engine
                  .Insert(1, "db", "items",
                          {Value(int64_t{1}), Value("x"), Value(1.0)})
                  .ok());
  wal::LogWriter* writer = engine.wal()->writer();
  uint64_t prepare_lsn = 0;
  ASSERT_TRUE(engine.Prepare(1, &prepare_lsn).ok());
  EXPECT_EQ(prepare_lsn, writer->last_appended_lsn());
  EXPECT_LT(writer->synced_lsn(), prepare_lsn);
  EXPECT_EQ(engine.GetTxnState(1), TxnState::kPrepared);
  ASSERT_TRUE(engine.AwaitDurable(prepare_lsn).ok());
  EXPECT_GE(writer->synced_lsn(), prepare_lsn);

  uint64_t commit_lsn = 0;
  ASSERT_TRUE(engine.CommitPrepared(1, &commit_lsn).ok());
  EXPECT_GT(commit_lsn, prepare_lsn);
  EXPECT_LT(writer->synced_lsn(), commit_lsn);
  EXPECT_FALSE(engine.GetTxnState(1).has_value());
  std::promise<Status> durable;
  engine.OnDurable(commit_lsn,
                   [&durable](Status status) { durable.set_value(status); });
  EXPECT_TRUE(durable.get_future().get().ok());
  EXPECT_GE(writer->synced_lsn(), commit_lsn);

  // Nothing logged, nothing to wait for.
  ASSERT_TRUE(engine.Begin(2).ok());
  uint64_t readonly_lsn = 7;
  ASSERT_TRUE(engine.Commit(2, &readonly_lsn).ok());
  EXPECT_EQ(readonly_lsn, 0u);
}

// A crash artifact — truncated to the last completed sync, with a torn
// half-record appended on top — must recover every acknowledged commit.
TEST_F(WalGroupCommitTest, TornTailCrashArtifactStillRecovers) {
  {
    Engine engine(Site(), EngineOptionsFor(wal::SyncPolicy::kGroup));
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    ASSERT_TRUE(engine.Begin(1).ok());
    ASSERT_TRUE(engine
                    .Insert(1, "db", "items",
                            {Value(int64_t{1}), Value("ok"), Value(1.0)})
                    .ok());
    ASSERT_TRUE(engine.Commit(1).ok());
    // Commit returned → the CMT record is synced; the crash keeps it.
    engine.wal()->writer()->CrashForTest();
  }
  {
    std::FILE* f = std::fopen(path_.string().c_str(), "ab");
    ASSERT_NE(f, nullptr);
    // A length prefix promising 32 bytes, then only the kInsert type byte
    // and the start of txn 99: torn.
    const char torn[] = {32, 0, 0, 0, 4, 99, 0, 0};
    ASSERT_EQ(std::fwrite(torn, 1, sizeof(torn), f), sizeof(torn));
    std::fclose(f);
  }
  Engine recovered(Site() + "_r");
  ASSERT_TRUE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
  Table* items = recovered.GetDatabase("db")->GetTable("items");
  ASSERT_NE(items, nullptr);
  EXPECT_EQ(items->row_count(), 1u);
  EXPECT_TRUE(items->Get(Value(int64_t{1})).has_value());
}

// Async policy: committers are released at write (not sync), so a crash may
// lose a suffix — but never more than async_max_lag_records of log, and
// what survives is a clean prefix of the acknowledged commits.
TEST_F(WalGroupCommitTest, AsyncLagLosesAtMostBoundedSuffix) {
  constexpr int kTxns = 40;
  constexpr int64_t kMaxLag = 8;
  {
    Engine engine(Site(),
                  EngineOptionsFor(wal::SyncPolicy::kAsync, kMaxLag));
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    for (int i = 1; i <= kTxns; ++i) {
      uint64_t txn = static_cast<uint64_t>(i);
      ASSERT_TRUE(engine.Begin(txn).ok());
      ASSERT_TRUE(engine
                      .Insert(txn, "db", "items",
                              {Value(int64_t{i}), Value("row"), Value(1.0)})
                      .ok());
      ASSERT_TRUE(engine.Commit(txn).ok());
    }
    // Power cut: written-but-unsynced bytes never hit the device.
    engine.wal()->writer()->CrashForTest();
  }
  Engine recovered(Site() + "_r");
  ASSERT_TRUE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
  Table* items = recovered.GetDatabase("db")->GetTable("items");
  ASSERT_NE(items, nullptr);
  // Survivors are a prefix {1..k} of commit order...
  int k = 0;
  while (k < kTxns &&
         items->Get(Value(static_cast<int64_t>(k + 1))).has_value()) {
    ++k;
  }
  EXPECT_EQ(items->row_count(), static_cast<size_t>(k))
      << "recovered rows are not a prefix of commit order";
  // ...and the lost suffix is bounded by the lag: each txn is 2 records
  // (INS+CMT), and at most kMaxLag records were unsynced at the crash.
  EXPECT_GE(k, kTxns - static_cast<int>(kMaxLag));
}

// Concurrent 2PC PREPAREs from distinct transactions must ride a shared
// flush: the sync count rises by less than the number of preparers, and the
// group-size histogram records a multi-record group.
TEST_F(WalGroupCommitTest, PreparesCoalesceIntoSharedFlush) {
  constexpr int kPreparers = 8;
  EngineOptions options = EngineOptionsFor(wal::SyncPolicy::kGroup);
  options.wal_sync_delay_us = 2000;  // make each device sync clearly visible
  Engine engine(Site(), options);
  ASSERT_TRUE(engine.CreateDatabase("db").ok());
  ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
  for (int i = 1; i <= kPreparers; ++i) {
    uint64_t txn = static_cast<uint64_t>(i);
    ASSERT_TRUE(engine.Begin(txn).ok());
    ASSERT_TRUE(engine
                    .Insert(txn, "db", "items",
                            {Value(int64_t{i}), Value("p"), Value(1.0)})
                    .ok());
  }
  // Drain the row-op appends so the measured window holds only PREPAREs.
  ASSERT_TRUE(engine.wal()->Sync().ok());
  const int64_t syncs_before = engine.wal()->writer()->syncs();

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kPreparers);
  for (int i = 1; i <= kPreparers; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      ASSERT_TRUE(engine.Prepare(static_cast<uint64_t>(i)).ok());
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  const int64_t syncs_for_prepares =
      engine.wal()->writer()->syncs() - syncs_before;
  EXPECT_GE(syncs_for_prepares, 1);
  EXPECT_LT(syncs_for_prepares, kPreparers)
      << "each PREPARE paid its own device sync: no coalescing happened";
  // The group-size metric must have seen a multi-record flush.
  Histogram* group_size = obs::MetricsRegistry::Global().GetHistogram(
      "mtdb_wal_group_size", obs::MetricLabels{.machine = Site()});
  EXPECT_GE(group_size->Max(), 2)
      << "group-size histogram never recorded a coalesced batch";

  for (int i = 1; i <= kPreparers; ++i) {
    ASSERT_TRUE(engine.CommitPrepared(static_cast<uint64_t>(i)).ok());
  }
}

// The same seeded workload, shut down cleanly, must replay to an identical
// engine under every sync policy — the policies trade latency, not replay
// semantics.
TEST_F(WalGroupCommitTest, RecoveryEquivalentAcrossPolicies) {
  uint64_t fingerprints[3] = {0, 0, 0};
  const wal::SyncPolicy policies[3] = {wal::SyncPolicy::kPerCommit,
                                       wal::SyncPolicy::kGroup,
                                       wal::SyncPolicy::kAsync};
  for (int p = 0; p < 3; ++p) {
    std::filesystem::path wal_path =
        path_.string() + "_" + wal::SyncPolicyName(policies[p]);
    std::filesystem::remove(wal_path);
    EngineOptions options;
    options.wal_path = wal_path.string();
    options.wal_sync_policy = policies[p];
    options.wal_async_max_lag_records = 8;
    uint64_t live_fp = 0;
    {
      Engine engine(Site() + "_" + std::to_string(p), options);
      ASSERT_TRUE(engine.CreateDatabase("db").ok());
      ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
      Random rng(3);  // same seed → byte-identical workload per policy
      uint64_t txn = 1;
      for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(engine.Begin(txn).ok());
        int64_t id = static_cast<int64_t>(rng.Uniform(20));
        auto existing = engine.Read(txn, "db", "items", Value(id));
        ASSERT_TRUE(existing.ok());
        Status s;
        if (!existing->has_value()) {
          s = engine.Insert(txn, "db", "items",
                            {Value(id), Value(rng.AlphaString(6)),
                             Value(static_cast<double>(rng.Uniform(100)))});
        } else if (rng.Bernoulli(0.3)) {
          s = engine.Delete(txn, "db", "items", Value(id));
        } else {
          s = engine.Update(txn, "db", "items", Value(id),
                            {Value(id), Value(rng.AlphaString(6)),
                             Value(static_cast<double>(rng.Uniform(100)))});
        }
        ASSERT_TRUE(s.ok());
        if (rng.Bernoulli(0.2)) {
          ASSERT_TRUE(engine.Abort(txn).ok());
        } else {
          ASSERT_TRUE(engine.Commit(txn).ok());
        }
        ++txn;
      }
      live_fp =
          engine.GetDatabase("db")->GetTable("items")->ContentFingerprint();
      // Engine destructor = clean shutdown: the log thread drains and
      // final-syncs, so even kAsync loses nothing here.
    }
    Engine recovered(Site() + "_r" + std::to_string(p));
    ASSERT_TRUE(WriteAheadLog::Recover(wal_path.string(), &recovered).ok());
    fingerprints[p] = recovered.GetDatabase("db")
                          ->GetTable("items")
                          ->ContentFingerprint();
    EXPECT_EQ(fingerprints[p], live_fp)
        << "policy " << wal::SyncPolicyName(policies[p])
        << " recovered state differs from live state";
    std::filesystem::remove(wal_path);
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(fingerprints[1], fingerprints[2]);
}

// A dead log must fail the commit, and the failed commit must roll back —
// the silently-volatile "commit" of the (void)-cast era is the bug.
TEST_F(WalGroupCommitTest, CommitFailsAndRollsBackWhenLogIsDead) {
  Engine engine(Site(), EngineOptionsFor(wal::SyncPolicy::kGroup));
  ASSERT_TRUE(engine.CreateDatabase("db").ok());
  ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
  ASSERT_TRUE(engine.Begin(1).ok());
  ASSERT_TRUE(engine
                  .Insert(1, "db", "items",
                          {Value(int64_t{1}), Value("x"), Value(1.0)})
                  .ok());
  // The log dies after the row op but before the commit record.
  engine.wal()->writer()->CrashForTest();
  Status commit = engine.Commit(1);
  EXPECT_FALSE(commit.ok());
  // The transaction was rolled back, not left half-committed: the row is
  // gone and the txn id is retired.
  EXPECT_FALSE(engine.GetDatabase("db")
                   ->GetTable("items")
                   ->Get(Value(int64_t{1}))
                   .has_value());
  EXPECT_FALSE(engine.GetTxnState(1).has_value());
  EXPECT_EQ(engine.committed_count(), 0);
  EXPECT_EQ(engine.aborted_count(), 1);
}

}  // namespace
}  // namespace mtdb
