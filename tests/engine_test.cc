#include <gtest/gtest.h>

#include <thread>

#include "src/storage/dump.h"
#include "src/storage/engine.h"

namespace mtdb {
namespace {

TableSchema ItemsSchema() {
  return TableSchema("items",
                     {{"id", ColumnType::kInt64, true},
                      {"name", ColumnType::kString, false},
                      {"qty", ColumnType::kInt64, false}},
                     0);
}

Row ItemRow(int64_t id, const std::string& name, int64_t qty) {
  return {Value(id), Value(name), Value(qty)};
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineOptions options;
    options.record_history = true;
    options.lock_options.lock_timeout_us = 500'000;
    engine_ = std::make_unique<Engine>("site-a", options);
    ASSERT_TRUE(engine_->CreateDatabase("shop").ok());
    ASSERT_TRUE(engine_->CreateTable("shop", ItemsSchema()).ok());
  }

  std::unique_ptr<Engine> engine_;
  uint64_t next_txn_ = 1;
  uint64_t NewTxn() {
    uint64_t id = next_txn_++;
    EXPECT_TRUE(engine_->Begin(id).ok());
    return id;
  }
  // Copies out the rows Engine::Scan visits in [lo, hi].
  std::vector<Row> ScanAll(uint64_t txn,
                           const std::optional<Value>& lo = std::nullopt,
                           const std::optional<Value>& hi = std::nullopt) {
    std::vector<Row> rows;
    EXPECT_TRUE(engine_
                    ->Scan(txn, "shop", "items", lo, hi,
                           [&rows](const Row& row) {
                             rows.push_back(row);
                             return true;
                           })
                    .ok());
    return rows;
  }
};

TEST_F(EngineTest, CatalogOperations) {
  EXPECT_TRUE(engine_->HasDatabase("shop"));
  EXPECT_FALSE(engine_->HasDatabase("none"));
  EXPECT_EQ(engine_->CreateDatabase("shop").code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(engine_->CreateDatabase("other").ok());
  EXPECT_EQ(engine_->DatabaseNames().size(), 2u);
  EXPECT_TRUE(engine_->DropDatabase("other").ok());
  EXPECT_EQ(engine_->DropDatabase("other").code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, CreateTableRequiresAKeyColumn) {
  // A schema from outside the engine (a dump off the wire) may name no key
  // column; rows of such a table would be indexed out of bounds.
  EXPECT_EQ(engine_->CreateTable("shop", TableSchema()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine_
                ->CreateTable("shop", TableSchema("t",
                                                  {{"id", ColumnType::kInt64,
                                                    true}},
                                                  /*primary_key_index=*/5))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine_->GetDatabase("shop")->TableNames().size(), 1u);
}

TEST_F(EngineTest, InsertReadCommit) {
  uint64_t txn = NewTxn();
  ASSERT_TRUE(engine_->Insert(txn, "shop", "items", ItemRow(1, "book", 3)).ok());
  auto read = engine_->Read(txn, "shop", "items", Value(int64_t{1}));
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(read->has_value());
  EXPECT_EQ((**read)[1].AsString(), "book");
  ASSERT_TRUE(engine_->Commit(txn).ok());
  EXPECT_EQ(engine_->committed_count(), 1);

  // Visible to a later transaction.
  uint64_t txn2 = NewTxn();
  auto read2 = engine_->Read(txn2, "shop", "items", Value(int64_t{1}));
  ASSERT_TRUE(read2.ok());
  EXPECT_TRUE(read2->has_value());
  ASSERT_TRUE(engine_->Commit(txn2).ok());
}

TEST_F(EngineTest, ReadMissingRowReturnsEmpty) {
  uint64_t txn = NewTxn();
  auto read = engine_->Read(txn, "shop", "items", Value(int64_t{404}));
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->has_value());
  ASSERT_TRUE(engine_->Commit(txn).ok());
}

TEST_F(EngineTest, DuplicateInsertFails) {
  uint64_t txn = NewTxn();
  ASSERT_TRUE(engine_->Insert(txn, "shop", "items", ItemRow(1, "a", 1)).ok());
  EXPECT_EQ(engine_->Insert(txn, "shop", "items", ItemRow(1, "b", 2)).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(engine_->Abort(txn).ok());
}

TEST_F(EngineTest, AbortUndoesInsertUpdateDelete) {
  uint64_t setup = NewTxn();
  ASSERT_TRUE(engine_->Insert(setup, "shop", "items", ItemRow(1, "a", 1)).ok());
  ASSERT_TRUE(engine_->Insert(setup, "shop", "items", ItemRow(2, "b", 2)).ok());
  ASSERT_TRUE(engine_->Commit(setup).ok());

  uint64_t txn = NewTxn();
  ASSERT_TRUE(engine_->Insert(txn, "shop", "items", ItemRow(3, "c", 3)).ok());
  ASSERT_TRUE(
      engine_->Update(txn, "shop", "items", Value(int64_t{1}), ItemRow(1, "a2", 99))
          .ok());
  ASSERT_TRUE(engine_->Delete(txn, "shop", "items", Value(int64_t{2})).ok());
  ASSERT_TRUE(engine_->Abort(txn).ok());

  uint64_t check = NewTxn();
  auto r1 = engine_->Read(check, "shop", "items", Value(int64_t{1}));
  ASSERT_TRUE(r1.ok() && r1->has_value());
  EXPECT_EQ((**r1)[1].AsString(), "a");
  EXPECT_EQ((**r1)[2].AsInt(), 1);
  auto r2 = engine_->Read(check, "shop", "items", Value(int64_t{2}));
  EXPECT_TRUE(r2.ok() && r2->has_value());
  auto r3 = engine_->Read(check, "shop", "items", Value(int64_t{3}));
  EXPECT_TRUE(r3.ok() && !r3->has_value());
  ASSERT_TRUE(engine_->Commit(check).ok());
  EXPECT_EQ(engine_->aborted_count(), 1);
}

// The database's size is Value::ByteSize summed over its live rows: an
// update counts the new image, a delete and an aborted insert nothing.
TEST_F(EngineTest, ApproxByteSizeSumsTheLiveRows) {
  Database* shop = engine_->GetDatabase("shop");
  EXPECT_EQ(shop->ApproxByteSize(), 0u);
  uint64_t txn = NewTxn();
  for (int64_t id : {1, 2, 3}) {
    ASSERT_TRUE(
        engine_->Insert(txn, "shop", "items", ItemRow(id, "x", id)).ok());
  }
  ASSERT_TRUE(engine_->Commit(txn).ok());
  const Row updated = ItemRow(1, "a name longer than fifteen bytes", 99);
  txn = NewTxn();
  ASSERT_TRUE(
      engine_->Update(txn, "shop", "items", Value(int64_t{1}), updated).ok());
  ASSERT_TRUE(engine_->Delete(txn, "shop", "items", Value(int64_t{2})).ok());
  ASSERT_TRUE(engine_->Commit(txn).ok());
  txn = NewTxn();
  ASSERT_TRUE(engine_->Insert(txn, "shop", "items", ItemRow(4, "y", 4)).ok());
  ASSERT_TRUE(engine_->Abort(txn).ok());

  size_t expected = 0;
  for (const Row& row : {updated, ItemRow(3, "x", 3)}) {
    for (const Value& v : row) expected += v.ByteSize();
  }
  EXPECT_EQ(shop->ApproxByteSize(), expected);
}

TEST_F(EngineTest, UpdateMissingRowFails) {
  uint64_t txn = NewTxn();
  EXPECT_EQ(engine_->Update(txn, "shop", "items", Value(int64_t{7}),
                            ItemRow(7, "x", 0))
                .code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(engine_->Abort(txn).ok());
}

TEST_F(EngineTest, ScanTableSeesCommittedRows) {
  ASSERT_TRUE(engine_
                  ->BulkInsert("shop", "items",
                               {ItemRow(1, "a", 1), ItemRow(2, "b", 2),
                                ItemRow(3, "c", 3)})
                  .ok());
  uint64_t txn = NewTxn();
  std::vector<Row> rows = ScanAll(txn);
  EXPECT_EQ(rows.size(), 3u);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0][0].AsInt(), 1);  // PK order
  // The scan stops when the visitor says so.
  int visited = 0;
  ASSERT_TRUE(engine_
                  ->Scan(txn, "shop", "items", std::nullopt, std::nullopt,
                         [&visited](const Row&) { return ++visited < 2; })
                  .ok());
  EXPECT_EQ(visited, 2);
  ASSERT_TRUE(engine_->Commit(txn).ok());
}

TEST_F(EngineTest, ScanRangeRespectsBounds) {
  ASSERT_TRUE(engine_
                  ->BulkInsert("shop", "items",
                               {ItemRow(1, "a", 1), ItemRow(2, "b", 2),
                                ItemRow(3, "c", 3), ItemRow(4, "d", 4)})
                  .ok());
  uint64_t txn = NewTxn();
  std::vector<Row> rows = ScanAll(txn, Value(int64_t{2}), Value(int64_t{3}));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt(), 2);
  EXPECT_EQ(rows[1][0].AsInt(), 3);
  // An inverted range is empty.
  EXPECT_TRUE(ScanAll(txn, Value(int64_t{3}), Value(int64_t{2})).empty());
  ASSERT_TRUE(engine_->Commit(txn).ok());
}

TEST_F(EngineTest, SecondaryIndexLookup) {
  ASSERT_TRUE(engine_->CreateIndex("shop", "items", "idx_qty", "qty").ok());
  ASSERT_TRUE(engine_
                  ->BulkInsert("shop", "items",
                               {ItemRow(1, "a", 5), ItemRow(2, "b", 5),
                                ItemRow(3, "c", 7)})
                  .ok());
  uint64_t txn = NewTxn();
  auto pks =
      engine_->IndexLookup(txn, "shop", "items", "qty", Value(int64_t{5}));
  ASSERT_TRUE(pks.ok());
  EXPECT_EQ(pks->size(), 2u);
  auto none =
      engine_->IndexLookup(txn, "shop", "items", "qty", Value(int64_t{99}));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  ASSERT_TRUE(engine_->Commit(txn).ok());
}

TEST_F(EngineTest, IndexMaintainedAcrossUpdateDeleteAbort) {
  ASSERT_TRUE(engine_->CreateIndex("shop", "items", "idx_qty", "qty").ok());
  ASSERT_TRUE(engine_->BulkInsert("shop", "items", {ItemRow(1, "a", 5)}).ok());

  uint64_t txn = NewTxn();
  ASSERT_TRUE(engine_
                  ->Update(txn, "shop", "items", Value(int64_t{1}),
                           ItemRow(1, "a", 6))
                  .ok());
  ASSERT_TRUE(engine_->Abort(txn).ok());

  uint64_t check = NewTxn();
  auto at5 =
      engine_->IndexLookup(check, "shop", "items", "qty", Value(int64_t{5}));
  ASSERT_TRUE(at5.ok());
  EXPECT_EQ(at5->size(), 1u);  // abort restored the index entry
  auto at6 =
      engine_->IndexLookup(check, "shop", "items", "qty", Value(int64_t{6}));
  ASSERT_TRUE(at6.ok());
  EXPECT_TRUE(at6->empty());
  ASSERT_TRUE(engine_->Commit(check).ok());
}

TEST_F(EngineTest, TwoPhaseCommitLifecycle) {
  uint64_t txn = NewTxn();
  ASSERT_TRUE(engine_->Insert(txn, "shop", "items", ItemRow(1, "a", 1)).ok());
  ASSERT_TRUE(engine_->Prepare(txn).ok());
  EXPECT_EQ(engine_->GetTxnState(txn), TxnState::kPrepared);
  EXPECT_EQ(engine_->PreparedTxnIds().size(), 1u);
  ASSERT_TRUE(engine_->CommitPrepared(txn).ok());
  EXPECT_EQ(engine_->GetTxnState(txn), std::nullopt);  // gone after commit
}

TEST_F(EngineTest, CommitPreparedRequiresPrepare) {
  uint64_t txn = NewTxn();
  EXPECT_EQ(engine_->CommitPrepared(txn).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine_->Abort(txn).ok());
}

TEST_F(EngineTest, OperationsAfterPrepareRejected) {
  uint64_t txn = NewTxn();
  ASSERT_TRUE(engine_->Insert(txn, "shop", "items", ItemRow(1, "a", 1)).ok());
  ASSERT_TRUE(engine_->Prepare(txn).ok());
  EXPECT_EQ(engine_->Insert(txn, "shop", "items", ItemRow(2, "b", 2)).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine_->Abort(txn).ok());  // prepared txns can still abort
}

TEST_F(EngineTest, PrepareReleasesReadLocksWhenOptionSet) {
  ASSERT_TRUE(engine_->BulkInsert("shop", "items", {ItemRow(1, "a", 1)}).ok());
  uint64_t reader = NewTxn();
  ASSERT_TRUE(engine_->Read(reader, "shop", "items", Value(int64_t{1})).ok());
  ASSERT_TRUE(
      engine_->Insert(reader, "shop", "items", ItemRow(9, "z", 9)).ok());
  ASSERT_TRUE(engine_->Prepare(reader).ok());

  // A writer can now update row 1 (read lock was dropped at PREPARE) ...
  uint64_t writer = NewTxn();
  EXPECT_TRUE(engine_
                  ->Update(writer, "shop", "items", Value(int64_t{1}),
                           ItemRow(1, "b", 2))
                  .ok());
  // ... but cannot touch row 9 (write lock held until commit).
  EXPECT_EQ(engine_->Read(writer, "shop", "items", Value(int64_t{9}))
                .status()
                .code(),
            StatusCode::kLockTimeout);
  ASSERT_TRUE(engine_->Abort(writer).ok());
  ASSERT_TRUE(engine_->CommitPrepared(reader).ok());
}

TEST_F(EngineTest, PrepareKeepsReadLocksWhenOptionCleared) {
  EngineOptions options;
  options.release_read_locks_on_prepare = false;
  options.lock_options.lock_timeout_us = 200'000;
  Engine strict("site-strict", options);
  ASSERT_TRUE(strict.CreateDatabase("shop").ok());
  ASSERT_TRUE(strict.CreateTable("shop", ItemsSchema()).ok());
  ASSERT_TRUE(strict.BulkInsert("shop", "items", {ItemRow(1, "a", 1)}).ok());

  ASSERT_TRUE(strict.Begin(1).ok());
  ASSERT_TRUE(strict.Read(1, "shop", "items", Value(int64_t{1})).ok());
  ASSERT_TRUE(strict.Prepare(1).ok());

  ASSERT_TRUE(strict.Begin(2).ok());
  EXPECT_EQ(
      strict.Update(2, "shop", "items", Value(int64_t{1}), ItemRow(1, "b", 2))
          .code(),
      StatusCode::kLockTimeout);
  ASSERT_TRUE(strict.Abort(2).ok());
  ASSERT_TRUE(strict.CommitPrepared(1).ok());
}

TEST_F(EngineTest, WriteConflictBlocksUntilCommit) {
  ASSERT_TRUE(engine_->BulkInsert("shop", "items", {ItemRow(1, "a", 1)}).ok());
  uint64_t t1 = NewTxn();
  ASSERT_TRUE(engine_
                  ->Update(t1, "shop", "items", Value(int64_t{1}),
                           ItemRow(1, "t1", 1))
                  .ok());
  Status t2_status;
  std::thread other([&] {
    uint64_t t2 = 100;
    ASSERT_TRUE(engine_->Begin(t2).ok());
    t2_status = engine_->Update(t2, "shop", "items", Value(int64_t{1}),
                                ItemRow(1, "t2", 2));
    ASSERT_TRUE(engine_->Commit(t2).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(engine_->Commit(t1).ok());
  other.join();
  EXPECT_TRUE(t2_status.ok());
  uint64_t check = NewTxn();
  auto row = engine_->Read(check, "shop", "items", Value(int64_t{1}));
  ASSERT_TRUE(row.ok() && row->has_value());
  EXPECT_EQ((**row)[1].AsString(), "t2");  // t2 won, serialized after t1
  ASSERT_TRUE(engine_->Commit(check).ok());
}

TEST_F(EngineTest, HistoryRecordsCommittedReadsAndWrites) {
  uint64_t txn = NewTxn();
  ASSERT_TRUE(engine_->Insert(txn, "shop", "items", ItemRow(1, "a", 1)).ok());
  ASSERT_TRUE(engine_->Read(txn, "shop", "items", Value(int64_t{1})).ok());
  ASSERT_TRUE(engine_->Commit(txn).ok());

  uint64_t aborted = NewTxn();
  ASSERT_TRUE(
      engine_->Insert(aborted, "shop", "items", ItemRow(2, "b", 2)).ok());
  ASSERT_TRUE(engine_->Abort(aborted).ok());

  auto history = engine_->GetHistory();
  ASSERT_EQ(history.size(), 1u);  // aborted txn absent
  EXPECT_EQ(history[0].txn_id, txn);
  EXPECT_EQ(history[0].writes.size(), 1u);
  EXPECT_EQ(history[0].reads.size(), 1u);
  EXPECT_EQ(history[0].reads[0].version, history[0].writes[0].version);
}

TEST_F(EngineTest, BulkInsertRejectsDuplicates) {
  EXPECT_TRUE(engine_->BulkInsert("shop", "items", {ItemRow(1, "a", 1)}).ok());
  EXPECT_EQ(
      engine_->BulkInsert("shop", "items", {ItemRow(1, "dup", 1)}).code(),
      StatusCode::kAlreadyExists);
}

TEST_F(EngineTest, ConcurrentDisjointTransactions) {
  std::vector<std::thread> threads;
  std::atomic<int> commits{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, t, &commits] {
      for (int i = 0; i < 50; ++i) {
        uint64_t txn = 1000 + t * 100 + i;
        ASSERT_TRUE(engine_->Begin(txn).ok());
        int64_t id = t * 1000 + i;
        if (engine_->Insert(txn, "shop", "items", ItemRow(id, "x", i)).ok()) {
          ASSERT_TRUE(engine_->Commit(txn).ok());
          commits++;
        } else {
          ASSERT_TRUE(engine_->Abort(txn).ok());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(commits, 200);
  uint64_t check = NewTxn();
  EXPECT_EQ(ScanAll(check).size(), 200u);
  ASSERT_TRUE(engine_->Commit(check).ok());
}

TEST_F(EngineTest, DumpAndInstallPreservesContentAndIndexes) {
  ASSERT_TRUE(engine_->CreateIndex("shop", "items", "by_name", "name").ok());
  ASSERT_TRUE(engine_
                  ->BulkInsert("shop", "items",
                               {ItemRow(1, "a", 1), ItemRow(2, "b", 2)})
                  .ok());
  auto dump = DumpTable(engine_.get(), "shop", "items", 777);
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump->rows.size(), 2u);

  Engine target("site-b");
  ASSERT_TRUE(target.CreateDatabase("shop").ok());
  std::vector<std::string> records;
  AppendCopyRecords("shop", std::move(*dump), &records);
  ASSERT_TRUE(WriteAheadLog::Replay(records, &target).ok());
  Table* src = engine_->GetDatabase("shop")->GetTable("items");
  Table* dst = target.GetDatabase("shop")->GetTable("items");
  EXPECT_EQ(src->ContentFingerprint(), dst->ContentFingerprint());
  // The index travels in the copy's schema and covers the copied rows.
  auto by_name = dst->IndexLookup(1, Value("b"));
  ASSERT_TRUE(by_name.ok()) << by_name.status().ToString();
  ASSERT_EQ(by_name->size(), 1u);
  EXPECT_EQ((*by_name)[0].AsInt(), 2);
}

TEST_F(EngineTest, DumpBlocksOnActiveWriter) {
  ASSERT_TRUE(engine_->BulkInsert("shop", "items", {ItemRow(1, "a", 1)}).ok());
  uint64_t writer = NewTxn();
  ASSERT_TRUE(engine_
                  ->Update(writer, "shop", "items", Value(int64_t{1}),
                           ItemRow(1, "w", 1))
                  .ok());
  std::atomic<bool> dumped{false};
  std::thread dumper([&] {
    auto dump = DumpTable(engine_.get(), "shop", "items", 888);
    EXPECT_TRUE(dump.ok());
    // The dump ran after the writer committed, so it sees the new value.
    EXPECT_EQ(dump->rows[0].first[1].AsString(), "w");
    dumped = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(dumped);  // dump's S lock waits on writer's IX/X
  ASSERT_TRUE(engine_->Commit(writer).ok());
  dumper.join();
  EXPECT_TRUE(dumped);
}

TEST_F(EngineTest, DumpDatabaseCoarseLocksAllTables) {
  ASSERT_TRUE(engine_->CreateTable(
                         "shop", TableSchema("orders",
                                             {{"id", ColumnType::kInt64, true}},
                                             0))
                  .ok());
  ASSERT_TRUE(engine_->BulkInsert("shop", "items", {ItemRow(1, "a", 1)}).ok());
  ASSERT_TRUE(
      engine_->BulkInsert("shop", "orders", {{Value(int64_t{10})}}).ok());
  auto dump = DumpDatabaseCoarse(engine_.get(), "shop", 999);
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump->tables.size(), 2u);

  Engine target("site-c");
  ASSERT_TRUE(target.CreateDatabase("shop").ok());
  std::vector<std::string> records;
  for (TableDump& table : dump->tables) {
    AppendCopyRecords("shop", std::move(table), &records);
  }
  ASSERT_TRUE(WriteAheadLog::Replay(records, &target).ok());
  EXPECT_EQ(target.GetDatabase("shop")->table_count(), 2u);
}

TEST_F(EngineTest, CacheModelCountsHitsAndMisses) {
  EngineOptions options;
  options.buffer_pool_pages = 2;
  options.rows_per_page = 1;
  Engine cached("cached", options);
  ASSERT_TRUE(cached.CreateDatabase("db").ok());
  ASSERT_TRUE(cached.CreateTable("db", ItemsSchema()).ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back(ItemRow(i, "r", i));
  ASSERT_TRUE(cached.BulkInsert("db", "items", rows).ok());
  // BulkInsert doesn't touch the cache; reads do.
  ASSERT_TRUE(cached.Begin(1).ok());
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(cached.Read(1, "db", "items", Value(i)).ok());
  }
  ASSERT_TRUE(cached.Commit(1).ok());
  EXPECT_EQ(cached.buffer_cache().misses(), 10);  // working set > pool
  ASSERT_TRUE(cached.Begin(2).ok());
  ASSERT_TRUE(cached.Read(2, "db", "items", Value(int64_t{9})).ok());
  ASSERT_TRUE(cached.Commit(2).ok());
  EXPECT_GE(cached.buffer_cache().hits(), 1);  // most recent page still hot
}

}  // namespace
}  // namespace mtdb
