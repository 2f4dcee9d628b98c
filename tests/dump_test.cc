// Unit tests for the database copy tool (the mysqldump equivalent), whose
// locking behaviour underpins the Theorem 3 correctness argument.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "src/common/clock.h"
#include "src/storage/dump.h"

namespace mtdb {
namespace {

// Installs a dumped table on `target` as a copy target does: the copy's log
// records through the one replay, into a database created first.
Status Install(Engine* target, const std::string& db_name, TableDump dump) {
  if (!target->HasDatabase(db_name)) {
    MTDB_RETURN_IF_ERROR(target->CreateDatabase(db_name));
  }
  std::vector<std::string> records;
  AppendCopyRecords(db_name, std::move(dump), &records);
  return WriteAheadLog::Replay(records, target);
}

class DumpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineOptions options;
    options.lock_options.lock_timeout_us = 400'000;
    engine_ = std::make_unique<Engine>("src", options);
    ASSERT_TRUE(engine_->CreateDatabase("db").ok());
    for (const char* table : {"alpha", "beta"}) {
      ASSERT_TRUE(engine_
                      ->CreateTable("db",
                                    TableSchema(table,
                                                {{"id", ColumnType::kInt64, true},
                                                 {"v", ColumnType::kString,
                                                  false}},
                                                0))
                      .ok());
      std::vector<Row> rows;
      for (int64_t i = 0; i < 6; ++i) {
        rows.push_back({Value(i), Value(std::string(table) + std::to_string(i))});
      }
      ASSERT_TRUE(engine_->BulkInsert("db", table, rows).ok());
    }
  }

  std::unique_ptr<Engine> engine_;
};

TEST_F(DumpTest, TableDumpCapturesSchemaAndRows) {
  auto dump = DumpTable(engine_.get(), "db", "alpha", 100);
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump->schema.name(), "alpha");
  EXPECT_EQ(dump->rows.size(), 6u);
  for (const auto& [row, version] : dump->rows) EXPECT_GT(version, 0u);
  // The dump transaction is gone (lock released).
  EXPECT_EQ(engine_->ActiveTxnCount(), 0u);
}

TEST_F(DumpTest, MissingTableFailsCleanly) {
  auto dump = DumpTable(engine_.get(), "db", "nope", 101);
  EXPECT_EQ(dump.status().code(), StatusCode::kNotFound);
  // The failed dump transaction must not linger holding locks.
  EXPECT_EQ(engine_->ActiveTxnCount(), 0u);
}

TEST_F(DumpTest, MissingDatabaseFailsCleanly) {
  auto dump = DumpDatabaseCoarse(engine_.get(), "nope", 102);
  EXPECT_EQ(dump.status().code(), StatusCode::kNotFound);
}

TEST_F(DumpTest, CoarseDumpCapturesAllTables) {
  auto dump = DumpDatabaseCoarse(engine_.get(), "db", 103);
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump->database_name, "db");
  ASSERT_EQ(dump->tables.size(), 2u);
  EXPECT_EQ(dump->tables[0].schema.name(), "alpha");
  EXPECT_EQ(dump->tables[1].schema.name(), "beta");
}

TEST_F(DumpTest, ApplyToTargetReproducesContent) {
  auto dump = DumpDatabaseCoarse(engine_.get(), "db", 104);
  ASSERT_TRUE(dump.ok());
  Engine target("dst");
  for (TableDump& table : dump->tables) {
    ASSERT_TRUE(Install(&target, dump->database_name, std::move(table)).ok());
  }
  for (const char* table : {"alpha", "beta"}) {
    EXPECT_EQ(target.GetDatabase("db")->GetTable(table)->ContentFingerprint(),
              engine_->GetDatabase("db")->GetTable(table)->ContentFingerprint());
  }
}

TEST_F(DumpTest, InstallingTwiceLeavesOneCopy) {
  // A migration delta replays over a bulk copy that may already reflect
  // part of it, so an install upserts: a second one leaves one copy.
  auto dump = DumpTable(engine_.get(), "db", "alpha", 105);
  ASSERT_TRUE(dump.ok());
  Engine target("dst");
  ASSERT_TRUE(Install(&target, "db", *dump).ok());
  ASSERT_TRUE(Install(&target, "db", *dump).ok());
  Table* copied = target.GetDatabase("db")->GetTable("alpha");
  EXPECT_EQ(copied->row_count(), 6u);
  EXPECT_EQ(copied->ContentFingerprint(),
            engine_->GetDatabase("db")->GetTable("alpha")->ContentFingerprint());
}

TEST_F(DumpTest, InstalledCopyIsInTheTargetLog) {
  // The one replay logs what it installs: the target's log alone rebuilds
  // the copy.
  EngineOptions options;
  options.wal_path = ::testing::TempDir() + "mtdb_dump_copy_" +
                     std::to_string(static_cast<long long>(getpid())) +
                     ".wal";
  std::remove(options.wal_path.c_str());
  {
    Engine target("dst", options);
    auto dump = DumpTable(engine_.get(), "db", "beta", 109);
    ASSERT_TRUE(dump.ok());
    ASSERT_TRUE(Install(&target, "db", std::move(*dump)).ok());
    // Durable when the install answers, as a bulk load is.
    wal::LogWriter* log = target.wal()->writer();
    EXPECT_EQ(log->synced_lsn(), log->last_appended_lsn());
  }
  Engine recovered("recovered");
  ASSERT_TRUE(WriteAheadLog::Recover(options.wal_path, &recovered).ok());
  std::remove(options.wal_path.c_str());
  ASSERT_TRUE(recovered.HasDatabase("db"));
  Table* table = recovered.GetDatabase("db")->GetTable("beta");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->ContentFingerprint(),
            engine_->GetDatabase("db")->GetTable("beta")->ContentFingerprint());
}

TEST_F(DumpTest, DumpWaitsForWritersAndSeesTheirCommit) {
  // A writer holding an X lock delays the dump; the dump then includes the
  // committed value (the single-object read-only transaction argument of
  // Theorem 3, part 1).
  ASSERT_TRUE(engine_->Begin(1).ok());
  ASSERT_TRUE(engine_
                  ->Update(1, "db", "alpha", Value(int64_t{0}),
                           {Value(int64_t{0}), Value("updated")})
                  .ok());
  std::atomic<bool> dump_done{false};
  std::thread dumper([&] {
    auto dump = DumpTable(engine_.get(), "db", "alpha", 106);
    ASSERT_TRUE(dump.ok());
    EXPECT_EQ(dump->rows[0].first[1].AsString(), "updated");
    dump_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(dump_done);  // still blocked on the writer's IX/X
  ASSERT_TRUE(engine_->Commit(1).ok());
  dumper.join();
}

TEST_F(DumpTest, WritersBlockWhileDumpHoldsTheLock) {
  // With a per-row delay the dump holds its S lock for a while; a writer to
  // the same table must wait, and a writer to another table must not.
  DumpOptions slow;
  slow.per_row_delay_us = 20'000;  // 6 rows -> ~120 ms under lock
  std::atomic<bool> dump_started{false};
  std::thread dumper([&] {
    dump_started = true;
    auto dump = DumpTable(engine_.get(), "db", "alpha", 107, slow);
    ASSERT_TRUE(dump.ok());
  });
  while (!dump_started) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  ASSERT_TRUE(engine_->Begin(2).ok());
  // Writer to the *other* table proceeds immediately.
  EXPECT_TRUE(engine_
                  ->Update(2, "db", "beta", Value(int64_t{1}),
                           {Value(int64_t{1}), Value("free")})
                  .ok());
  // Writer to the dumped table blocks until the dump finishes; measure that
  // it took noticeable time rather than failing.
  Stopwatch watch;
  EXPECT_TRUE(engine_
                  ->Update(2, "db", "alpha", Value(int64_t{1}),
                           {Value(int64_t{1}), Value("waited")})
                  .ok());
  EXPECT_GT(watch.ElapsedMicros(), 20'000);
  ASSERT_TRUE(engine_->Commit(2).ok());
  dumper.join();
}

TEST_F(DumpTest, WriteOnTheCopyVersionsAboveCopiedRows) {
  // The copied rows take the target's own versions, and a write on the new
  // replica gets a version above every one of them: per-object
  // monotonicity holds there, which the serializability checker relies on.
  auto dump = DumpTable(engine_.get(), "db", "alpha", 108);
  ASSERT_TRUE(dump.ok());
  Engine target("dst");
  ASSERT_TRUE(Install(&target, "db", std::move(*dump)).ok());
  Table* copied = target.GetDatabase("db")->GetTable("alpha");
  uint64_t newest_copied = 0;
  copied->VisitRange(std::nullopt, std::nullopt,
                     [&](const Value&, const StoredRow& stored) {
                       newest_copied = std::max(newest_copied, stored.version);
                       return true;
                     });
  ASSERT_GT(newest_copied, 0u);
  ASSERT_TRUE(target.Begin(1).ok());
  ASSERT_TRUE(target
                  .Update(1, "db", "alpha", Value(int64_t{0}),
                          {Value(int64_t{0}), Value("newer")})
                  .ok());
  ASSERT_TRUE(target.Commit(1).ok());
  EXPECT_GT(copied->Get(Value(int64_t{0}))->version, newest_copied);
}

}  // namespace
}  // namespace mtdb
