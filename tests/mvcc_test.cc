// MVCC version store tests (DESIGN.md §13): timestamp oracle invariants,
// version-chain visibility and GC, and the engine-level snapshot-read
// contract — read-only transactions see a committed snapshot, never block on
// (or take) locks, and are rejected on write. The concurrent tests carry the
// "mvcc" ctest label so CI runs them under TSan (`ctest -L mvcc`).

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/history.h"
#include "src/storage/engine.h"
#include "src/storage/mvcc/timestamp_oracle.h"
#include "src/storage/mvcc/version_store.h"

namespace mtdb {
namespace {

using analysis::AuditHistories;
using mvcc::RowVersion;
using mvcc::TimestampOracle;
using mvcc::VersionStore;

// --- TimestampOracle ---

TEST(TimestampOracleTest, CommitTimestampsAreStrictlyIncreasing) {
  TimestampOracle oracle;
  uint64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    uint64_t ts = oracle.ReserveCommit();
    EXPECT_GT(ts, prev);
    prev = ts;
  }
  // Reserved but unpublished timestamps are invisible to snapshots.
  EXPECT_EQ(oracle.LastPublished(), 0u);
  EXPECT_EQ(oracle.BeginSnapshot(), 0u);
  oracle.EndSnapshot(0);
  oracle.Publish(prev);
  EXPECT_EQ(oracle.LastPublished(), prev);
  EXPECT_EQ(oracle.BeginSnapshot(), prev);
  oracle.EndSnapshot(prev);
}

TEST(TimestampOracleTest, WatermarkTracksOldestActiveSnapshot) {
  TimestampOracle oracle;
  oracle.Publish(oracle.ReserveCommit());  // ts 1
  uint64_t old_snap = oracle.BeginSnapshot();
  EXPECT_EQ(old_snap, 1u);
  oracle.Publish(oracle.ReserveCommit());  // ts 2
  oracle.Publish(oracle.ReserveCommit());  // ts 3
  uint64_t new_snap = oracle.BeginSnapshot();
  EXPECT_EQ(new_snap, 3u);
  EXPECT_EQ(oracle.ActiveSnapshots(), 2u);
  // The old snapshot pins the watermark; ending it advances to the next.
  EXPECT_EQ(oracle.Watermark(), 1u);
  oracle.EndSnapshot(old_snap);
  EXPECT_EQ(oracle.Watermark(), 3u);
  oracle.EndSnapshot(new_snap);
  EXPECT_EQ(oracle.ActiveSnapshots(), 0u);
  // No active snapshots: watermark is the published frontier.
  EXPECT_EQ(oracle.Watermark(), 3u);
}

// --- VersionStore ---

Row MakeRow(int64_t k, int64_t v) { return {Value(k), Value(v)}; }

TEST(VersionStoreTest, SeedBaseCreatesChainOnlyOnce) {
  VersionStore store;
  EXPECT_TRUE(store.SeedBase("db", "t", Value(int64_t{1}), MakeRow(1, 10), 3));
  // Later writers of the same key must not clobber the original pre-image.
  EXPECT_FALSE(store.SeedBase("db", "t", Value(int64_t{1}), MakeRow(1, 99), 9));
  auto base = store.Get("db", "t", Value(int64_t{1}), 0);
  ASSERT_TRUE(base.has_value());
  ASSERT_TRUE(base->values.has_value());
  EXPECT_EQ((*base->values)[1], Value(int64_t{10}));
  EXPECT_EQ(base->row_version, 3u);
  EXPECT_EQ(store.live_versions(), 1);
}

TEST(VersionStoreTest, GetReturnsNewestVersionAtOrBelowSnapshot) {
  VersionStore store;
  Value pk(int64_t{1});
  store.SeedBase("db", "t", pk, MakeRow(1, 0), 1);
  store.Append("db", "t", pk, 10, MakeRow(1, 100), 2);
  store.Append("db", "t", pk, 20, MakeRow(1, 200), 3);
  auto at = [&](uint64_t ts) {
    auto v = store.Get("db", "t", pk, ts);
    EXPECT_TRUE(v.has_value() && v->values.has_value());
    return (*v->values)[1];
  };
  EXPECT_EQ(at(0), Value(int64_t{0}));
  EXPECT_EQ(at(9), Value(int64_t{0}));
  EXPECT_EQ(at(10), Value(int64_t{100}));
  EXPECT_EQ(at(19), Value(int64_t{100}));
  EXPECT_EQ(at(20), Value(int64_t{200}));
  EXPECT_EQ(at(1'000'000), Value(int64_t{200}));
  // Unchained key: nullopt tells the caller to fall back to the live row.
  EXPECT_FALSE(store.Get("db", "t", Value(int64_t{2}), 20).has_value());
}

TEST(VersionStoreTest, TombstonesRecordDeletesAndPreInsertAbsence) {
  VersionStore store;
  Value pk(int64_t{7});
  // Insert path: the key did not exist before the first writer.
  store.SeedBase("db", "t", pk, std::nullopt, 0);
  store.Append("db", "t", pk, 5, MakeRow(7, 70), 1);
  store.Append("db", "t", pk, 9, std::nullopt, 2);  // delete
  auto before = store.Get("db", "t", pk, 3);
  ASSERT_TRUE(before.has_value());
  EXPECT_FALSE(before->values.has_value());  // not yet inserted
  auto alive = store.Get("db", "t", pk, 5);
  ASSERT_TRUE(alive.has_value());
  ASSERT_TRUE(alive->values.has_value());
  auto deleted = store.Get("db", "t", pk, 9);
  ASSERT_TRUE(deleted.has_value());
  EXPECT_FALSE(deleted->values.has_value());  // deleted again
}

TEST(VersionStoreTest, OverlayRespectsBoundsAndSnapshot) {
  VersionStore store;
  for (int64_t k = 1; k <= 5; ++k) {
    store.SeedBase("db", "t", Value(k), MakeRow(k, k * 10), 1);
    store.Append("db", "t", Value(k), 10 + static_cast<uint64_t>(k),
                 MakeRow(k, k * 100), 2);
  }
  auto overlay = store.Overlay("db", "t", Value(int64_t{2}), Value(int64_t{4}),
                               12);
  ASSERT_EQ(overlay.size(), 3u);
  // k=2 committed at ts 12 (visible), k=3 at 13, k=4 at 14 (base visible).
  EXPECT_EQ((*overlay.at(Value(int64_t{2})).values)[1], Value(int64_t{200}));
  EXPECT_EQ((*overlay.at(Value(int64_t{3})).values)[1], Value(int64_t{30}));
  EXPECT_EQ((*overlay.at(Value(int64_t{4})).values)[1], Value(int64_t{40}));
  // Open bounds cover every chained key.
  EXPECT_EQ(store.Overlay("db", "t", std::nullopt, std::nullopt, 0).size(), 5u);
  EXPECT_TRUE(store.Overlay("db", "other", std::nullopt, std::nullopt, 0)
                  .empty());
}

TEST(VersionStoreTest, PruneKeepsWatermarkFloorAndEverythingAbove) {
  VersionStore store;
  Value pk(int64_t{1});
  store.SeedBase("db", "t", pk, MakeRow(1, 0), 1);
  for (uint64_t ts = 10; ts <= 50; ts += 10) {
    store.Append("db", "t", pk, ts, MakeRow(1, static_cast<int64_t>(ts)), 2);
  }
  EXPECT_EQ(store.live_versions(), 6);
  // Watermark 30: the ts-30 floor plus ts 40/50 survive; base, 10, 20 go.
  EXPECT_EQ(store.PruneBelow(30), 3u);
  EXPECT_EQ(store.live_versions(), 3);
  auto floor = store.Get("db", "t", pk, 30);
  ASSERT_TRUE(floor.has_value());
  EXPECT_EQ((*floor->values)[1], Value(int64_t{30}));
  auto newest = store.Get("db", "t", pk, 99);
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ((*newest->values)[1], Value(int64_t{50}));
  // Idempotent at the same watermark; chains are never dropped whole.
  EXPECT_EQ(store.PruneBelow(30), 0u);
  EXPECT_EQ(store.PruneBelow(1'000), 2u);
  EXPECT_EQ(store.live_versions(), 1);
}

// --- Engine-level snapshot reads ---

class MvccEngineTest : public ::testing::Test {
 protected:
  // Short lock timeout: any snapshot-path operation that touched the lock
  // manager while a writer holds its X lock would surface as LockTimeout.
  void SetUp() override {
    EngineOptions options;
    options.record_history = true;
    options.lock_options.lock_timeout_us = 50'000;
    engine_ = std::make_unique<Engine>("site-a", options);
    ASSERT_TRUE(engine_->CreateDatabase("db").ok());
    ASSERT_TRUE(engine_
                    ->CreateTable("db", TableSchema(
                                            "kv",
                                            {{"k", ColumnType::kInt64, true},
                                             {"v", ColumnType::kInt64, false}},
                                            0))
                    .ok());
    std::vector<Row> rows;
    for (int64_t k = 1; k <= 3; ++k) rows.push_back(MakeRow(k, k * 10));
    ASSERT_TRUE(engine_->BulkInsert("db", "kv", rows).ok());
  }

  int64_t ReadV(uint64_t txn, int64_t k) {
    auto row = engine_->Read(txn, "db", "kv", Value(k));
    EXPECT_TRUE(row.ok()) << row.status().ToString();
    EXPECT_TRUE(row->has_value());
    return (**row)[1].AsInt();
  }

  std::unique_ptr<Engine> engine_;
};

TEST_F(MvccEngineTest, SnapshotReadSeesCommittedPreImageNotUncommittedWrite) {
  ASSERT_TRUE(engine_->Begin(1).ok());
  ASSERT_TRUE(engine_->Update(1, "db", "kv", Value(int64_t{1}), MakeRow(1, 99))
                  .ok());
  // The live row now holds txn 1's uncommitted image under its X lock. A
  // read-only transaction begun *now* must read the committed pre-image —
  // promptly, despite the 50ms lock timeout, because it takes no locks.
  uint64_t snapshot_ts = 0;
  ASSERT_TRUE(engine_->Begin(2, /*read_only=*/true, &snapshot_ts).ok());
  EXPECT_EQ(ReadV(2, 1), 10);
  ASSERT_TRUE(engine_->Commit(1).ok());
  // Snapshot is pinned at begin: the commit stays invisible to txn 2...
  EXPECT_EQ(ReadV(2, 1), 10);
  ASSERT_TRUE(engine_->Commit(2).ok());
  // ...and visible to the next snapshot.
  uint64_t later_ts = 0;
  ASSERT_TRUE(engine_->Begin(3, /*read_only=*/true, &later_ts).ok());
  EXPECT_GT(later_ts, snapshot_ts);
  EXPECT_EQ(ReadV(3, 1), 99);
  ASSERT_TRUE(engine_->Commit(3).ok());
}

TEST_F(MvccEngineTest, LockedReaderTimesOutWhereSnapshotReaderDoesNot) {
  ASSERT_TRUE(engine_->Begin(1).ok());
  ASSERT_TRUE(engine_->Update(1, "db", "kv", Value(int64_t{1}), MakeRow(1, 99))
                  .ok());
  // Control: a 2PL reader blocks on the X lock and times out.
  ASSERT_TRUE(engine_->Begin(2).ok());
  auto blocked = engine_->Read(2, "db", "kv", Value(int64_t{1}));
  EXPECT_FALSE(blocked.ok());
  ASSERT_TRUE(engine_->Abort(2).ok());
  // The snapshot reader is untouched by the same lock.
  ASSERT_TRUE(engine_->Begin(3, /*read_only=*/true).ok());
  EXPECT_EQ(ReadV(3, 1), 10);
  ASSERT_TRUE(engine_->Commit(3).ok());
  ASSERT_TRUE(engine_->Abort(1).ok());
}

TEST_F(MvccEngineTest, ReadOnlyTransactionRejectsEveryWritePath) {
  ASSERT_TRUE(engine_->Begin(1, /*read_only=*/true).ok());
  EXPECT_EQ(engine_->Insert(1, "db", "kv", MakeRow(9, 90)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine_->Update(1, "db", "kv", Value(int64_t{1}), MakeRow(1, 0))
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine_->Delete(1, "db", "kv", Value(int64_t{1})).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine_->LockTableExclusive(1, "db", "kv").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine_->LockTableShared(1, "db", "kv").code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine_->Commit(1).ok());
}

TEST_F(MvccEngineTest, SnapshotScanMergesUpdateDeleteInsert) {
  // Pin a snapshot of the bulk-loaded state, then commit a writer that
  // updates k=1, deletes k=2, and inserts k=4.
  ASSERT_TRUE(engine_->Begin(1, /*read_only=*/true).ok());
  ASSERT_TRUE(engine_->Begin(2).ok());
  ASSERT_TRUE(engine_->Update(2, "db", "kv", Value(int64_t{1}), MakeRow(1, 11))
                  .ok());
  ASSERT_TRUE(engine_->Delete(2, "db", "kv", Value(int64_t{2})).ok());
  ASSERT_TRUE(engine_->Insert(2, "db", "kv", MakeRow(4, 40)).ok());
  ASSERT_TRUE(engine_->Commit(2).ok());

  // Snapshot scans merge the live rows with the version store, then visit.
  auto scan = [this](uint64_t txn) {
    std::vector<Row> rows;
    Status status = engine_->Scan(txn, "db", "kv", std::nullopt, std::nullopt,
                                  [&rows](const Row& row) {
                                    rows.push_back(row);
                                    return true;
                                  });
    EXPECT_TRUE(status.ok()) << status.ToString();
    return rows;
  };
  std::vector<Row> old_scan = scan(1);
  ASSERT_EQ(old_scan.size(), 3u);  // pre-writer state: k=1,2,3 original
  EXPECT_EQ(old_scan[0][1], Value(int64_t{10}));
  EXPECT_EQ(old_scan[1][0], Value(int64_t{2}));
  ASSERT_TRUE(engine_->Commit(1).ok());

  ASSERT_TRUE(engine_->Begin(3, /*read_only=*/true).ok());
  std::vector<Row> new_scan = scan(3);
  ASSERT_EQ(new_scan.size(), 3u);  // k=1 (updated), k=3, k=4 (inserted)
  EXPECT_EQ(new_scan[0][1], Value(int64_t{11}));
  EXPECT_EQ(new_scan[1][0], Value(int64_t{3}));
  EXPECT_EQ(new_scan[2][0], Value(int64_t{4}));
  // The merged rows stop at the visitor's word like live ones do.
  int visited = 0;
  ASSERT_TRUE(engine_
                  ->Scan(3, "db", "kv", std::nullopt, std::nullopt,
                         [&visited](const Row&) { return ++visited < 2; })
                  .ok());
  EXPECT_EQ(visited, 2);
  ASSERT_TRUE(engine_->Commit(3).ok());
}

TEST_F(MvccEngineTest, GcPrunesSupersededVersions) {
  uint64_t txn = 10;
  for (int64_t v = 1; v <= 5; ++v) {
    ASSERT_TRUE(engine_->Begin(txn).ok());
    ASSERT_TRUE(engine_
                    ->Update(txn, "db", "kv", Value(int64_t{1}),
                             MakeRow(1, 100 + v))
                    .ok());
    ASSERT_TRUE(engine_->Commit(txn).ok());
    ++txn;
  }
  // base + 5 committed images, no snapshot pinning any of them.
  EXPECT_EQ(engine_->version_store().live_versions(), 6);
  EXPECT_EQ(engine_->MvccGc(), 5u);
  EXPECT_EQ(engine_->version_store().live_versions(), 1);
  // The surviving floor is exactly what a fresh snapshot reads.
  ASSERT_TRUE(engine_->Begin(txn, /*read_only=*/true).ok());
  EXPECT_EQ(ReadV(txn, 1), 105);
  ASSERT_TRUE(engine_->Commit(txn).ok());
}

// A dropped database takes its version chains along: chains are
// authoritative over live rows, so one left behind would answer a snapshot
// read of the re-created database with the dropped row.
TEST_F(MvccEngineTest, DropDatabaseDropsItsVersions) {
  ASSERT_TRUE(engine_->Begin(1).ok());
  ASSERT_TRUE(engine_->Update(1, "db", "kv", Value(int64_t{1}), MakeRow(1, 11))
                  .ok());
  ASSERT_TRUE(engine_->Commit(1).ok());
  ASSERT_EQ(engine_->version_store().live_versions(), 2);

  ASSERT_TRUE(engine_->DropDatabase("db").ok());
  EXPECT_EQ(engine_->version_store().live_versions(), 0);
  ASSERT_TRUE(engine_->CreateDatabase("db").ok());
  ASSERT_TRUE(engine_
                  ->CreateTable("db", TableSchema(
                                          "kv",
                                          {{"k", ColumnType::kInt64, true},
                                           {"v", ColumnType::kInt64, false}},
                                          0))
                  .ok());
  ASSERT_TRUE(engine_->BulkInsert("db", "kv", {MakeRow(1, 12)}).ok());

  ASSERT_TRUE(engine_->Begin(2, /*read_only=*/true).ok());
  EXPECT_EQ(ReadV(2, 1), 12);
  ASSERT_TRUE(engine_->Commit(2).ok());
  ASSERT_TRUE(engine_->Begin(3).ok());
  EXPECT_EQ(ReadV(3, 1), 12);
  ASSERT_TRUE(engine_->Commit(3).ok());
}

// The same for one table; its neighbours keep their chains.
TEST_F(MvccEngineTest, DropTableDropsItsVersions) {
  ASSERT_TRUE(engine_
                  ->CreateTable("db", TableSchema(
                                          "other",
                                          {{"k", ColumnType::kInt64, true},
                                           {"v", ColumnType::kInt64, false}},
                                          0))
                  .ok());
  ASSERT_TRUE(engine_->Begin(1).ok());
  ASSERT_TRUE(engine_->Update(1, "db", "kv", Value(int64_t{1}), MakeRow(1, 11))
                  .ok());
  ASSERT_TRUE(engine_->Insert(1, "db", "other", MakeRow(1, 5)).ok());
  ASSERT_TRUE(engine_->Commit(1).ok());
  ASSERT_EQ(engine_->version_store().live_versions(), 4);

  ASSERT_TRUE(engine_->DropTable("db", "kv").ok());
  EXPECT_EQ(engine_->version_store().live_versions(), 2);
  ASSERT_TRUE(engine_
                  ->CreateTable("db", TableSchema(
                                          "kv",
                                          {{"k", ColumnType::kInt64, true},
                                           {"v", ColumnType::kInt64, false}},
                                          0))
                  .ok());
  ASSERT_TRUE(engine_->BulkInsert("db", "kv", {MakeRow(1, 12)}).ok());

  ASSERT_TRUE(engine_->Begin(2, /*read_only=*/true).ok());
  EXPECT_EQ(ReadV(2, 1), 12);
  ASSERT_TRUE(engine_->Commit(2).ok());
  ASSERT_TRUE(engine_->Begin(3).ok());
  EXPECT_EQ(ReadV(3, 1), 12);
  ASSERT_TRUE(engine_->Commit(3).ok());
}

TEST_F(MvccEngineTest, HistoryMarksReadOnlyTransactions) {
  ASSERT_TRUE(engine_->Begin(1, /*read_only=*/true).ok());
  EXPECT_EQ(ReadV(1, 1), 10);
  ASSERT_TRUE(engine_->Commit(1).ok());
  ASSERT_TRUE(engine_->Begin(2).ok());
  EXPECT_EQ(ReadV(2, 1), 10);
  ASSERT_TRUE(engine_->Commit(2).ok());
  auto history = engine_->GetHistory();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_TRUE(history[0].read_only);
  ASSERT_EQ(history[0].reads.size(), 1u);  // snapshot reads feed the DSG too
  EXPECT_FALSE(history[1].read_only);
}

// The TSan centerpiece: concurrent transfer writers (strict 2PL) against
// snapshot readers checking the conservation invariant, then a full DSG
// audit of the mixed history.
TEST_F(MvccEngineTest, ConcurrentSnapshotReadersSeeConsistentTotals) {
  constexpr int kWriters = 3;
  constexpr int kReaders = 3;
  constexpr int kTxnsPerWriter = 40;
  constexpr int kReadsPerReader = 60;
  constexpr int64_t kTotal = 10 + 20 + 30;
  std::atomic<uint64_t> next_txn{100};
  std::atomic<int> inconsistent{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int t = 0; t < kTxnsPerWriter; ++t) {
        uint64_t id = next_txn.fetch_add(1);
        if (!engine_->Begin(id).ok()) continue;
        // Move one unit from key a to key b, preserving the total.
        int64_t a = 1 + (w + t) % 3;
        int64_t b = 1 + (w + t + 1) % 3;
        auto ra = engine_->Read(id, "db", "kv", Value(a));
        auto rb = engine_->Read(id, "db", "kv", Value(b));
        if (!ra.ok() || !rb.ok() || !ra->has_value() || !rb->has_value()) {
          (void)engine_->Abort(id);
          continue;
        }
        int64_t va = (**ra)[1].AsInt(), vb = (**rb)[1].AsInt();
        if (!engine_->Update(id, "db", "kv", Value(a), MakeRow(a, va - 1))
                 .ok() ||
            !engine_->Update(id, "db", "kv", Value(b), MakeRow(b, vb + 1))
                 .ok()) {
          (void)engine_->Abort(id);
          continue;
        }
        (void)engine_->Commit(id);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int t = 0; t < kReadsPerReader; ++t) {
        uint64_t id = next_txn.fetch_add(1);
        if (!engine_->Begin(id, /*read_only=*/true).ok()) continue;
        int64_t sum = 0;
        bool ok = true;
        for (int64_t k = 1; k <= 3 && ok; ++k) {
          auto row = engine_->Read(id, "db", "kv", Value(k));
          ok = row.ok() && row->has_value();
          if (ok) sum += (**row)[1].AsInt();
        }
        if (ok && sum != kTotal) inconsistent.fetch_add(1);
        (void)engine_->Commit(id);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every snapshot observed the conserved total — no torn commit leaked.
  EXPECT_EQ(inconsistent.load(), 0);
  EXPECT_EQ(engine_->timestamp_oracle().ActiveSnapshots(), 0u);

  // The mixed 2PL/snapshot history is serializable, and in particular no
  // cycle (there must be none) could involve a read-only transaction.
  auto report = AuditHistories({engine_->GetHistory()});
  EXPECT_TRUE(report.serializable) << report.ToString();
  EXPECT_FALSE(report.read_only_in_cycle);

  // GC after quiescence leaves one floor version per written key.
  (void)engine_->MvccGc();
  EXPECT_EQ(engine_->version_store().live_versions(), 3);
}

}  // namespace
}  // namespace mtdb
