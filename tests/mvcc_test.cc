// MVCC tests (DESIGN.md §13): timestamp oracle invariants, the tables'
// version chains (seeding, visibility, settling), the bound on what they
// keep, and the engine-level snapshot-read contract — read-only
// transactions see a committed snapshot, never block on (or take) locks,
// and are rejected on write. The concurrent tests carry the "mvcc" ctest
// label so CI runs them under TSan (`ctest -L mvcc`).

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/history.h"
#include "src/obs/metrics.h"
#include "src/storage/engine.h"
#include "src/storage/mvcc/timestamp_oracle.h"
#include "src/storage/table.h"

namespace mtdb {
namespace {

using analysis::AuditHistories;
using mvcc::TimestampOracle;

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

// --- The version store: each table's chains, beside its live rows ---

Row MakeRow(int64_t k, int64_t v) { return {Value(k), Value(v)}; }

TableSchema KvSchema(const std::string& name) {
  return TableSchema(name,
                     {{"k", ColumnType::kInt64, true},
                      {"v", ColumnType::kInt64, false}},
                     0);
}

// The value column a snapshot at `ts` reads for `k`, or -1 when the row
// did not exist then.
int64_t ValueAt(const Table& table, int64_t k, uint64_t ts) {
  RowVersion version = table.GetAt(Value(k), ts);
  return version.values ? (*version.values)[1].AsInt() : -1;
}

TEST(VersionStoreTest, SeedBaseCreatesChainOnlyOnce) {
  std::atomic<int64_t> versions{0};
  Table table(KvSchema("t"), &versions);
  Value pk(int64_t{1});
  ASSERT_TRUE(table.Insert(MakeRow(1, 10), 3));  // bulk: no chain
  EXPECT_EQ(versions.load(), 0);
  StoredRow pre;
  ASSERT_TRUE(table.Update(pk, MakeRow(1, 99), 4, &pre));
  EXPECT_EQ(pre.values[1], Value(int64_t{10}));
  EXPECT_EQ(pre.version, 3u);
  // A later write of the same key must not clobber the committed pre-image.
  ASSERT_TRUE(table.Update(pk, MakeRow(1, 98), 5, &pre));
  RowVersion base = table.GetAt(pk, 0);
  ASSERT_TRUE(base.values.has_value());
  EXPECT_EQ((*base.values)[1], Value(int64_t{10}));
  EXPECT_EQ(base.row_version, 3u);
  EXPECT_EQ(versions.load(), 1);
}

TEST(VersionStoreTest, GetReturnsNewestVersionAtOrBelowSnapshot) {
  std::atomic<int64_t> versions{0};
  Table table(KvSchema("t"), &versions);
  Value pk(int64_t{1});
  ASSERT_TRUE(table.Insert(MakeRow(1, 0), 1));
  StoredRow pre;
  ASSERT_TRUE(table.Update(pk, MakeRow(1, 100), 2, &pre));
  table.AppendCommitted(pk, 10);
  ASSERT_TRUE(table.Update(pk, MakeRow(1, 200), 3, &pre));
  table.AppendCommitted(pk, 20);
  EXPECT_EQ(ValueAt(table, 1, 0), 0);
  EXPECT_EQ(ValueAt(table, 1, 9), 0);
  EXPECT_EQ(ValueAt(table, 1, 10), 100);
  EXPECT_EQ(ValueAt(table, 1, 19), 100);
  EXPECT_EQ(ValueAt(table, 1, 20), 200);
  EXPECT_EQ(ValueAt(table, 1, 1'000'000), 200);
  EXPECT_EQ(table.GetAt(pk, 20).row_version, 3u);
  EXPECT_EQ(versions.load(), 3);
  // A key with no chain reads its live row, or nothing at version 0.
  ASSERT_TRUE(table.Insert(MakeRow(2, 7), 4));
  EXPECT_EQ(ValueAt(table, 2, 0), 7);
  EXPECT_EQ(table.GetAt(Value(int64_t{2}), 0).row_version, 4u);
  RowVersion never = table.GetAt(Value(int64_t{3}), 20);
  EXPECT_FALSE(never.values.has_value());
  EXPECT_EQ(never.row_version, 0u);
}

TEST(VersionStoreTest, TombstonesRecordDeletesAndPreInsertAbsence) {
  std::atomic<int64_t> versions{0};
  Table table(KvSchema("t"), &versions);
  Value pk(int64_t{7});
  // Insert path: the key did not exist before the first writer.
  StoredRow pre;
  ASSERT_TRUE(table.Insert(MakeRow(7, 70), 1, &pre));
  EXPECT_EQ(pre.version, 0u);
  table.AppendCommitted(pk, 5);
  ASSERT_TRUE(table.Delete(pk, 2, &pre));
  EXPECT_EQ(pre.version, 1u);
  table.AppendCommitted(pk, 9);
  RowVersion before = table.GetAt(pk, 3);
  EXPECT_FALSE(before.values.has_value());  // not yet inserted
  EXPECT_EQ(before.row_version, 0u);
  EXPECT_EQ(ValueAt(table, 7, 5), 70);
  RowVersion deleted = table.GetAt(pk, 9);
  EXPECT_FALSE(deleted.values.has_value());  // deleted again
  EXPECT_EQ(deleted.row_version, 2u);
  // Settled, the chain goes and the delete's version stays.
  EXPECT_EQ(table.Settle(pk, 9), 3u);
  EXPECT_EQ(versions.load(), 0);
  EXPECT_EQ(table.LastVersion(pk), 2u);
  EXPECT_EQ(table.GetAt(pk, 9).row_version, 2u);
  // A later insert reads the tombstone as its pre-image's version.
  ASSERT_TRUE(table.Insert(MakeRow(7, 71), 3, &pre));
  EXPECT_EQ(pre.version, 2u);
  EXPECT_EQ(table.GetAt(pk, 9).row_version, 2u);
}

TEST(VersionStoreTest, OverlayRespectsBoundsAndSnapshot) {
  std::atomic<int64_t> versions{0};
  Table table(KvSchema("t"), &versions);
  StoredRow pre;
  for (int64_t k = 1; k <= 5; ++k) {
    ASSERT_TRUE(table.Insert(MakeRow(k, k * 10), 1));
    ASSERT_TRUE(table.Update(Value(k), MakeRow(k, k * 100), 2, &pre));
    table.AppendCommitted(Value(k), 10 + static_cast<uint64_t>(k));
  }
  ASSERT_TRUE(table.Insert(MakeRow(6, 60), 1));  // unchained
  ASSERT_TRUE(table.Insert(MakeRow(7, 70), 2, &pre));
  table.AppendCommitted(Value(int64_t{7}), 20);  // inserted at ts 20
  using Seen = std::vector<std::pair<int64_t, int64_t>>;
  auto visit = [&table](const std::optional<Value>& lo,
                        const std::optional<Value>& hi, uint64_t ts) {
    Seen seen;
    table.VisitRangeAt(lo, hi, ts,
                       [&seen](const Value& pk, const Row& row, uint64_t) {
                         seen.emplace_back(pk.AsInt(), row[1].AsInt());
                         return true;
                       });
    return seen;
  };
  // k=2 committed at ts 12 (visible), k=3 at 13, k=4 at 14 (base visible).
  EXPECT_EQ(visit(Value(int64_t{2}), Value(int64_t{4}), 12),
            (Seen{{2, 200}, {3, 30}, {4, 40}}));
  // Open bounds cover every key: the unchained one live, the one inserted
  // after the snapshot not at all, then at a later snapshot.
  EXPECT_EQ(visit(std::nullopt, std::nullopt, 0).size(), 6u);
  EXPECT_EQ(visit(std::nullopt, std::nullopt, 20).size(), 7u);
  EXPECT_EQ(visit(Value(int64_t{6}), std::nullopt, 20),
            (Seen{{6, 60}, {7, 70}}));
  EXPECT_TRUE(visit(Value(int64_t{4}), Value(int64_t{2}), 20).empty());
}

TEST(VersionStoreTest, PruneKeepsWatermarkFloorAndEverythingAbove) {
  std::atomic<int64_t> versions{0};
  Table table(KvSchema("t"), &versions);
  Value pk(int64_t{1});
  ASSERT_TRUE(table.Insert(MakeRow(1, 0), 1));
  StoredRow pre;
  for (uint64_t ts = 10; ts <= 50; ts += 10) {
    ASSERT_TRUE(
        table.Update(pk, MakeRow(1, static_cast<int64_t>(ts)), ts, &pre));
    table.AppendCommitted(pk, ts);
  }
  EXPECT_EQ(versions.load(), 6);
  // Watermark 30: the ts-30 floor plus ts 40/50 survive; base, 10, 20 go.
  EXPECT_EQ(table.Settle(pk, 30), 3u);
  EXPECT_EQ(versions.load(), 3);
  EXPECT_EQ(ValueAt(table, 1, 30), 30);
  EXPECT_EQ(ValueAt(table, 1, 99), 50);
  // Idempotent at the same watermark. Past the newest version only the
  // live image is left, and the chain goes.
  EXPECT_EQ(table.Settle(pk, 30), 0u);
  EXPECT_EQ(table.Settle(pk, 1'000), 3u);
  EXPECT_EQ(versions.load(), 0);
  EXPECT_EQ(ValueAt(table, 1, 99), 50);
  // A writer in flight keeps its seeded pre-image at any watermark.
  ASSERT_TRUE(table.Update(pk, MakeRow(1, 60), 60, &pre));
  EXPECT_EQ(table.SettleAll(1'000'000), 0u);
  EXPECT_EQ(versions.load(), 1);
  EXPECT_EQ(ValueAt(table, 1, 1'000'000), 50);
}

TEST(VersionStoreTest, VersionsLeaveTheCountWithTheirTable) {
  std::atomic<int64_t> versions{0};
  {
    Table table(KvSchema("t"), &versions);
    StoredRow pre;
    ASSERT_TRUE(table.Insert(MakeRow(1, 10), 1, &pre));
    table.AppendCommitted(Value(int64_t{1}), 5);
    EXPECT_EQ(versions.load(), 2);
  }
  EXPECT_EQ(versions.load(), 0);
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

  // Snapshot scans visit the live rows, with each chained key's visible
  // image in its place, in place.
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
  // Two snapshots hold versions: one from before every update, one from
  // after the third.
  ASSERT_TRUE(engine_->Begin(1, /*read_only=*/true).ok());
  uint64_t txn = 10;
  auto update = [&](int64_t v) {
    ASSERT_TRUE(engine_->Begin(txn).ok());
    ASSERT_TRUE(engine_
                    ->Update(txn, "db", "kv", Value(int64_t{1}),
                             MakeRow(1, 100 + v))
                    .ok());
    ASSERT_TRUE(engine_->Commit(txn).ok());
    ++txn;
  };
  for (int64_t v = 1; v <= 3; ++v) update(v);
  ASSERT_TRUE(engine_->Begin(2, /*read_only=*/true).ok());
  for (int64_t v = 4; v <= 5; ++v) update(v);
  // base + 5 committed images, all above the oldest snapshot.
  EXPECT_EQ(engine_->mvcc_versions_live(), 6);
  EXPECT_EQ(ReadV(1, 1), 10);
  ASSERT_TRUE(engine_->Commit(1).ok());
  // The second snapshot's floor (the third image) and what follows stay.
  EXPECT_EQ(engine_->MvccGc(), 3u);
  EXPECT_EQ(engine_->mvcc_versions_live(), 3);
  EXPECT_EQ(ReadV(2, 1), 103);
  ASSERT_TRUE(engine_->Commit(2).ok());
  // With no snapshot left, the live row holds the one image anyone reads.
  EXPECT_EQ(engine_->MvccGc(), 3u);
  EXPECT_EQ(engine_->mvcc_versions_live(), 0);
  ASSERT_TRUE(engine_->Begin(txn, /*read_only=*/true).ok());
  EXPECT_EQ(ReadV(txn, 1), 105);
  ASSERT_TRUE(engine_->Commit(txn).ok());
}

// With no snapshot open, a committed write keeps no version: its commit
// settles the chain its write seeded.
TEST_F(MvccEngineTest, CommittedWritesLeaveNoVersionsWithoutASnapshot) {
  for (uint64_t txn = 10; txn < 15; ++txn) {
    ASSERT_TRUE(engine_->Begin(txn).ok());
    ASSERT_TRUE(engine_
                    ->Update(txn, "db", "kv", Value(int64_t{1}),
                             MakeRow(1, static_cast<int64_t>(txn)))
                    .ok());
    EXPECT_EQ(engine_->mvcc_versions_live(), 1);  // the seeded pre-image
    ASSERT_TRUE(engine_->Commit(txn).ok());
    EXPECT_EQ(engine_->mvcc_versions_live(), 0);
  }
  if (obs::MetricsRegistry::enabled()) {
    EXPECT_EQ(obs::MetricsRegistry::Global().GaugeValue(
                  "mtdb_mvcc_versions_live", {.machine = "site-a"}),
              0);
  }
  ASSERT_TRUE(engine_->Begin(20, /*read_only=*/true).ok());
  EXPECT_EQ(ReadV(20, 1), 14);
  ASSERT_TRUE(engine_->Commit(20).ok());
}

// An abort settles what its writes seeded once undo has restored the rows.
TEST_F(MvccEngineTest, AbortedWritesLeaveNoVersions) {
  ASSERT_TRUE(engine_->Begin(1).ok());
  ASSERT_TRUE(engine_->Insert(1, "db", "kv", MakeRow(9, 90)).ok());
  EXPECT_EQ(engine_->mvcc_versions_live(), 1);
  ASSERT_TRUE(engine_->Abort(1).ok());
  EXPECT_EQ(engine_->mvcc_versions_live(), 0);

  ASSERT_TRUE(engine_->Begin(2).ok());
  ASSERT_TRUE(engine_->Update(2, "db", "kv", Value(int64_t{1}), MakeRow(1, 11))
                  .ok());
  ASSERT_TRUE(engine_->Abort(2).ok());
  EXPECT_EQ(engine_->mvcc_versions_live(), 0);

  ASSERT_TRUE(engine_->Begin(3).ok());
  ASSERT_TRUE(engine_->Delete(3, "db", "kv", Value(int64_t{2})).ok());
  ASSERT_TRUE(engine_->Abort(3).ok());
  EXPECT_EQ(engine_->mvcc_versions_live(), 0);

  Table* table = engine_->GetDatabase("db")->GetTable("kv");
  EXPECT_FALSE(table->Get(Value(int64_t{9})).has_value());
  EXPECT_EQ(table->LastVersion(Value(int64_t{9})), 0u);
  ASSERT_TRUE(engine_->Begin(4, /*read_only=*/true).ok());
  EXPECT_EQ(ReadV(4, 1), 10);
  EXPECT_EQ(ReadV(4, 2), 20);
  ASSERT_TRUE(engine_->Commit(4).ok());
}

// A snapshot keeps exactly what it can read, and only while it is open.
TEST_F(MvccEngineTest, SnapshotKeepsVersionsOnlyWhileOpen) {
  ASSERT_TRUE(engine_->Begin(1, /*read_only=*/true).ok());
  for (uint64_t txn = 10; txn < 15; ++txn) {
    ASSERT_TRUE(engine_->Begin(txn).ok());
    ASSERT_TRUE(engine_
                    ->Update(txn, "db", "kv", Value(int64_t{1}),
                             MakeRow(1, static_cast<int64_t>(txn)))
                    .ok());
    ASSERT_TRUE(engine_->Commit(txn).ok());
  }
  EXPECT_EQ(ReadV(1, 1), 10);
  EXPECT_EQ(engine_->mvcc_versions_live(), 6);
  ASSERT_TRUE(engine_->Commit(1).ok());
  EXPECT_EQ(engine_->MvccGc(), 6u);
  EXPECT_EQ(engine_->mvcc_versions_live(), 0);
  ASSERT_TRUE(engine_->Begin(2, /*read_only=*/true).ok());
  EXPECT_EQ(ReadV(2, 1), 14);
  ASSERT_TRUE(engine_->Commit(2).ok());
}

// A read that finds no row records the version of the delete that removed
// it, or 0 for a key never written, on the locking and snapshot paths
// alike; an aborted insert puts the delete's version back.
TEST_F(MvccEngineTest, HistoryRecordsReadMissVersions) {
  ASSERT_TRUE(engine_->Begin(1).ok());
  ASSERT_TRUE(engine_->Delete(1, "db", "kv", Value(int64_t{2})).ok());
  ASSERT_TRUE(engine_->Commit(1).ok());
  ASSERT_TRUE(engine_->Begin(2).ok());
  ASSERT_TRUE(engine_->Insert(2, "db", "kv", MakeRow(2, 21)).ok());
  ASSERT_TRUE(engine_->Abort(2).ok());
  for (uint64_t txn : {3, 4}) {
    ASSERT_TRUE(engine_->Begin(txn, /*read_only=*/txn == 4).ok());
    for (int64_t k : {2, 99}) {
      auto row = engine_->Read(txn, "db", "kv", Value(k));
      ASSERT_TRUE(row.ok()) << row.status().ToString();
      EXPECT_FALSE(row->has_value());
    }
    ASSERT_TRUE(engine_->Commit(txn).ok());
  }
  auto history = engine_->GetHistory();
  ASSERT_EQ(history.size(), 3u);
  ASSERT_EQ(history[0].writes.size(), 1u);
  const uint64_t delete_version = history[0].writes[0].version;
  EXPECT_GT(delete_version, 0u);
  for (size_t i : {1, 2}) {
    ASSERT_EQ(history[i].reads.size(), 2u);
    EXPECT_EQ(history[i].reads[0].object_id,
              Engine::RowLockId("db", "kv", Value(int64_t{2})));
    EXPECT_EQ(history[i].reads[0].version, delete_version);
    EXPECT_EQ(history[i].reads[1].version, 0u);
  }
}

// A dropped database takes its version chains along: a chain decides a
// snapshot read over the live row, so one left behind would answer a
// snapshot read of the re-created database with the dropped row. A snapshot
// held open keeps the chain there until the drop.
TEST_F(MvccEngineTest, DropDatabaseDropsItsVersions) {
  ASSERT_TRUE(engine_->Begin(10, /*read_only=*/true).ok());
  ASSERT_TRUE(engine_->Begin(1).ok());
  ASSERT_TRUE(engine_->Update(1, "db", "kv", Value(int64_t{1}), MakeRow(1, 11))
                  .ok());
  ASSERT_TRUE(engine_->Commit(1).ok());
  ASSERT_EQ(engine_->mvcc_versions_live(), 2);

  ASSERT_TRUE(engine_->DropDatabase("db").ok());
  EXPECT_EQ(engine_->mvcc_versions_live(), 0);
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
  ASSERT_TRUE(engine_->Commit(10).ok());
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
  ASSERT_TRUE(engine_->Begin(10, /*read_only=*/true).ok());
  ASSERT_TRUE(engine_->Begin(1).ok());
  ASSERT_TRUE(engine_->Update(1, "db", "kv", Value(int64_t{1}), MakeRow(1, 11))
                  .ok());
  ASSERT_TRUE(engine_->Insert(1, "db", "other", MakeRow(1, 5)).ok());
  ASSERT_TRUE(engine_->Commit(1).ok());
  ASSERT_EQ(engine_->mvcc_versions_live(), 4);

  ASSERT_TRUE(engine_->DropTable("db", "kv").ok());
  EXPECT_EQ(engine_->mvcc_versions_live(), 2);
  // The open snapshot still reads the neighbour as it was.
  auto other = engine_->Read(10, "db", "other", Value(int64_t{1}));
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->has_value());
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
  ASSERT_TRUE(engine_->Commit(10).ok());
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

  // GC after quiescence leaves no version: the live rows are all anyone
  // reads.
  (void)engine_->MvccGc();
  EXPECT_EQ(engine_->mvcc_versions_live(), 0);
}

}  // namespace
}  // namespace mtdb
