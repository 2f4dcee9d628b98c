// Unit tests for the database copy tool (the mysqldump equivalent), whose
// locking behaviour underpins the Theorem 3 correctness argument.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "src/common/clock.h"
#include "src/storage/dump.h"

namespace mtdb {
namespace {

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
  EXPECT_GT(dump->max_version, 0u);
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
  for (const TableDump& table : dump->tables) {
    ASSERT_TRUE(ApplyTableDump(&target, dump->database_name, table).ok());
  }
  for (const char* table : {"alpha", "beta"}) {
    EXPECT_EQ(target.GetDatabase("db")->GetTable(table)->ContentFingerprint(),
              engine_->GetDatabase("db")->GetTable(table)->ContentFingerprint());
  }
}

TEST_F(DumpTest, ApplyTwiceFails) {
  auto dump = DumpTable(engine_.get(), "db", "alpha", 105);
  ASSERT_TRUE(dump.ok());
  Engine target("dst");
  ASSERT_TRUE(ApplyTableDump(&target, "db", *dump).ok());
  EXPECT_EQ(ApplyTableDump(&target, "db", *dump).code(),
            StatusCode::kAlreadyExists);
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

TEST_F(DumpTest, VersionsSurviveTheCopy) {
  // Versions carried by the dump keep per-object monotonicity intact on the
  // new replica, which the serializability checker relies on.
  auto dump = DumpTable(engine_.get(), "db", "alpha", 108);
  ASSERT_TRUE(dump.ok());
  Engine target("dst");
  ASSERT_TRUE(ApplyTableDump(&target, "db", *dump).ok());
  Table* copied = target.GetDatabase("db")->GetTable("alpha");
  // A write on the new replica gets a version above everything copied.
  ASSERT_TRUE(target.Begin(1).ok());
  ASSERT_TRUE(target
                  .Update(1, "db", "alpha", Value(int64_t{0}),
                          {Value(int64_t{0}), Value("newer")})
                  .ok());
  ASSERT_TRUE(target.Commit(1).ok());
  EXPECT_GT(copied->Get(Value(int64_t{0}))->version, dump->max_version);
}

}  // namespace
}  // namespace mtdb
