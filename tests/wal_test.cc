#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "src/common/random.h"
#include "src/storage/engine.h"
#include "src/storage/wal/wal.h"

namespace mtdb {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("mtdb_wal_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  EngineOptions WalOptions() {
    EngineOptions options;
    options.wal_path = path_.string();
    return options;
  }

  TableSchema ItemsSchema() {
    return TableSchema("items",
                       {{"id", ColumnType::kInt64, true},
                        {"name", ColumnType::kString, false},
                        {"price", ColumnType::kDouble, false}},
                       0);
  }

  std::filesystem::path path_;
};

TEST_F(WalTest, ValueCodecRoundTrip) {
  // Each value is logged in a column of its type (NULL in all three) and
  // must come back from Recover unchanged, NUL bytes included.
  const std::vector<Value> values = {
      Value(), Value(int64_t{-42}), Value(3.14159), Value("plain"),
      Value("with\nnewline"), Value(std::string(1, '\x1f')),
      Value("back\\slash"), Value(int64_t{INT64_MAX}),
      Value(std::string("ab\0cd", 5))};
  auto column_of = [](const Value& v) {
    return v.is_int() ? 1 : (v.is_double() ? 2 : 3);
  };
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    TableSchema schema("vals",
                       {{"id", ColumnType::kInt64, true},
                        {"i", ColumnType::kInt64, false},
                        {"d", ColumnType::kDouble, false},
                        {"s", ColumnType::kString, false}},
                       0);
    ASSERT_TRUE(engine.CreateTable("db", schema).ok());
    ASSERT_TRUE(engine.Begin(1).ok());
    for (size_t k = 0; k < values.size(); ++k) {
      Row row = {Value(static_cast<int64_t>(k)), Value(), Value(), Value()};
      if (!values[k].is_null()) row[column_of(values[k])] = values[k];
      ASSERT_TRUE(engine.Insert(1, "db", "vals", row).ok());
    }
    ASSERT_TRUE(engine.Commit(1).ok());
  }
  Engine recovered("site2");
  ASSERT_TRUE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
  Table* vals = recovered.GetDatabase("db")->GetTable("vals");
  for (size_t k = 0; k < values.size(); ++k) {
    const Value& v = values[k];
    auto decoded = vals->Get(Value(static_cast<int64_t>(k)));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->values[column_of(v)], v) << v.ToString();
  }
  EXPECT_EQ(vals->Get(Value(int64_t{8}))->values[3].AsString().size(), 5u);
}

TEST_F(WalTest, SchemaCodecRoundTrip) {
  TableSchema schema = ItemsSchema();
  ASSERT_TRUE(schema.AddIndex("idx_name", "name").ok());
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", schema).ok());
  }
  Engine recovered("site2");
  ASSERT_TRUE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
  Table* table = recovered.GetDatabase("db")->GetTable("items");
  ASSERT_NE(table, nullptr);
  const TableSchema* decoded = &table->schema();
  EXPECT_EQ(decoded->name(), "items");
  EXPECT_EQ(decoded->num_columns(), 3u);
  EXPECT_EQ(decoded->primary_key_index(), 0);
  EXPECT_EQ(decoded->columns()[2].type, ColumnType::kDouble);
  ASSERT_EQ(decoded->indexes().size(), 1u);
  EXPECT_EQ(decoded->indexes()[0].name, "idx_name");
  EXPECT_EQ(decoded->indexes()[0].column_index, 1);
}

TEST_F(WalTest, CommittedTransactionSurvivesRestart) {
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    ASSERT_TRUE(engine.CreateIndex("db", "items", "idx_name", "name").ok());
    ASSERT_TRUE(engine.Begin(1).ok());
    ASSERT_TRUE(engine
                    .Insert(1, "db", "items",
                            {Value(int64_t{1}), Value("book"), Value(9.5)})
                    .ok());
    ASSERT_TRUE(engine.Commit(1).ok());
    // Engine destroyed here: the "machine" power-cycles.
  }
  Engine recovered("site2");
  ASSERT_TRUE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
  ASSERT_TRUE(recovered.HasDatabase("db"));
  Table* items = recovered.GetDatabase("db")->GetTable("items");
  ASSERT_NE(items, nullptr);
  auto row = items->Get(Value(int64_t{1}));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->values[1].AsString(), "book");
  EXPECT_DOUBLE_EQ(row->values[2].AsDouble(), 9.5);
  // The secondary index was rebuilt too.
  auto pks = items->IndexLookup(1, Value("book"));
  ASSERT_TRUE(pks.ok());
  EXPECT_EQ(pks->size(), 1u);
}

TEST_F(WalTest, UncommittedTransactionDiscardedAtRecovery) {
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    ASSERT_TRUE(engine.Begin(1).ok());
    ASSERT_TRUE(engine
                    .Insert(1, "db", "items",
                            {Value(int64_t{1}), Value("winner"), Value(1.0)})
                    .ok());
    ASSERT_TRUE(engine.Commit(1).ok());
    ASSERT_TRUE(engine.Begin(2).ok());
    ASSERT_TRUE(engine
                    .Insert(2, "db", "items",
                            {Value(int64_t{2}), Value("loser"), Value(2.0)})
                    .ok());
    // Crash before commit: no commit record for txn 2.
  }
  Engine recovered("site2");
  ASSERT_TRUE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
  Table* items = recovered.GetDatabase("db")->GetTable("items");
  EXPECT_TRUE(items->Get(Value(int64_t{1})).has_value());
  EXPECT_FALSE(items->Get(Value(int64_t{2})).has_value());
}

TEST_F(WalTest, AbortedTransactionDiscardedAtRecovery) {
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    ASSERT_TRUE(engine.Begin(1).ok());
    ASSERT_TRUE(engine
                    .Insert(1, "db", "items",
                            {Value(int64_t{1}), Value("x"), Value(1.0)})
                    .ok());
    ASSERT_TRUE(engine.Abort(1).ok());
  }
  Engine recovered("site2");
  ASSERT_TRUE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
  EXPECT_EQ(recovered.GetDatabase("db")->GetTable("items")->row_count(), 0u);
}

TEST_F(WalTest, UpdatesAndDeletesReplayInOrder) {
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    ASSERT_TRUE(engine.BulkInsert("db", "items",
                                  {{Value(int64_t{1}), Value("a"), Value(1.0)},
                                   {Value(int64_t{2}), Value("b"), Value(2.0)},
                                   {Value(int64_t{3}), Value("c"), Value(3.0)}})
                    .ok());
    ASSERT_TRUE(engine.Begin(5).ok());
    ASSERT_TRUE(engine
                    .Update(5, "db", "items", Value(int64_t{1}),
                            {Value(int64_t{1}), Value("a2"), Value(10.0)})
                    .ok());
    ASSERT_TRUE(engine.Delete(5, "db", "items", Value(int64_t{2})).ok());
    ASSERT_TRUE(engine.Commit(5).ok());
  }
  Engine recovered("site2");
  ASSERT_TRUE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
  Table* items = recovered.GetDatabase("db")->GetTable("items");
  EXPECT_EQ(items->row_count(), 2u);
  EXPECT_EQ(items->Get(Value(int64_t{1}))->values[1].AsString(), "a2");
  EXPECT_FALSE(items->Get(Value(int64_t{2})).has_value());
  EXPECT_TRUE(items->Get(Value(int64_t{3})).has_value());
}

TEST_F(WalTest, TornFinalRecordIgnored) {
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    ASSERT_TRUE(engine.Begin(1).ok());
    ASSERT_TRUE(engine
                    .Insert(1, "db", "items",
                            {Value(int64_t{1}), Value("ok"), Value(1.0)})
                    .ok());
    ASSERT_TRUE(engine.Commit(1).ok());
  }
  // Simulate a torn write: a length prefix promising 32 bytes, then only
  // the kInsert type byte and the start of txn 99.
  {
    std::FILE* f = std::fopen(path_.string().c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char torn[] = {32, 0, 0, 0, 4, 99, 0, 0};
    ASSERT_EQ(std::fwrite(torn, 1, sizeof(torn), f), sizeof(torn));
    std::fclose(f);
  }
  Engine recovered("site2");
  ASSERT_TRUE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
  EXPECT_EQ(recovered.GetDatabase("db")->GetTable("items")->row_count(), 1u);
}

TEST_F(WalTest, RecoveredEngineEqualsOriginal) {
  uint64_t original_fp = 0;
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    Random rng(3);
    uint64_t txn = 1;
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(engine.Begin(txn).ok());
      int64_t id = static_cast<int64_t>(rng.Uniform(20));
      auto existing = engine.Read(txn, "db", "items", Value(id));
      ASSERT_TRUE(existing.ok());
      Status s;
      if (!existing->has_value()) {
        Row row = {Value(id), Value(rng.AlphaString(6)),
                   Value(static_cast<double>(rng.Uniform(100)))};
        s = engine.Insert(txn, "db", "items", row);
      } else if (rng.Bernoulli(0.3)) {
        s = engine.Delete(txn, "db", "items", Value(id));
      } else {
        Row row = {Value(id), Value(rng.AlphaString(6)),
                   Value(static_cast<double>(rng.Uniform(100)))};
        s = engine.Update(txn, "db", "items", Value(id), row);
      }
      ASSERT_TRUE(s.ok());
      if (rng.Bernoulli(0.2)) {
        ASSERT_TRUE(engine.Abort(txn).ok());
      } else {
        ASSERT_TRUE(engine.Commit(txn).ok());
      }
      ++txn;
    }
    original_fp =
        engine.GetDatabase("db")->GetTable("items")->ContentFingerprint();
  }
  Engine recovered("site2");
  ASSERT_TRUE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
  EXPECT_EQ(
      recovered.GetDatabase("db")->GetTable("items")->ContentFingerprint(),
      original_fp);
}

TEST_F(WalTest, ReadAllExposesRecordStream) {
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    ASSERT_TRUE(engine.Begin(1).ok());
    ASSERT_TRUE(engine
                    .Insert(1, "db", "items",
                            {Value(int64_t{1}), Value("x"), Value(1.0)})
                    .ok());
    ASSERT_TRUE(engine.Commit(1).ok());
  }
  auto records = WriteAheadLog::ReadAll(path_.string());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 4u);  // CDB, CTB, INS, CMT
  EXPECT_EQ((*records)[0].type, WalRecordType::kCreateDatabase);
  EXPECT_EQ((*records)[1].type, WalRecordType::kCreateTable);
  EXPECT_EQ((*records)[2].type, WalRecordType::kInsert);
  EXPECT_EQ((*records)[2].row.size(), 3u);
  EXPECT_EQ((*records)[3].type, WalRecordType::kCommit);
  EXPECT_EQ((*records)[3].txn_id, 1u);
}

TEST_F(WalTest, DropsReplaySoRecoveryEqualsTheLiveEngine) {
  Engine engine("site", WalOptions());
  ASSERT_TRUE(engine.CreateDatabase("db").ok());
  ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
  ASSERT_TRUE(engine
                  .BulkInsert("db", "items",
                              {{Value(int64_t{1}), Value("a"), Value(1.0)}})
                  .ok());
  ASSERT_TRUE(engine.CreateDatabase("gone").ok());
  ASSERT_TRUE(engine.CreateTable("gone", ItemsSchema()).ok());
  // Drop the table and re-create it under the same name with another
  // schema, then drop the second database.
  ASSERT_TRUE(engine.DropTable("db", "items").ok());
  ASSERT_TRUE(engine
                  .CreateTable("db", TableSchema(
                                         "items",
                                         {{"id", ColumnType::kInt64, true},
                                          {"label", ColumnType::kString, false}},
                                         0))
                  .ok());
  ASSERT_TRUE(engine.Begin(1).ok());
  ASSERT_TRUE(
      engine.Insert(1, "db", "items", {Value(int64_t{7}), Value("new")}).ok());
  ASSERT_TRUE(engine.Commit(1).ok());
  ASSERT_TRUE(engine.DropDatabase("gone").ok());

  Engine recovered("site2");
  Status status = WriteAheadLog::Recover(path_.string(), &recovered);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(recovered.DatabaseNames(), engine.DatabaseNames());
  Table* live = engine.GetDatabase("db")->GetTable("items");
  Table* items = recovered.GetDatabase("db")->GetTable("items");
  ASSERT_NE(items, nullptr);
  EXPECT_EQ(items->schema().num_columns(), 2u);
  EXPECT_EQ(items->ContentFingerprint(), live->ContentFingerprint());
}

TEST_F(WalTest, EveryCutOfTheLogRecoversACommittedPrefix) {
  constexpr int64_t kTxns = 6;
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    for (int64_t id = 1; id <= kTxns; ++id) {
      uint64_t txn = static_cast<uint64_t>(id);
      ASSERT_TRUE(engine.Begin(txn).ok());
      ASSERT_TRUE(engine
                      .Insert(txn, "db", "items",
                              {Value(id), Value(std::string("n\0l", 3)),
                               Value(0.5 * static_cast<double>(id))})
                      .ok());
      ASSERT_TRUE(engine.Commit(txn).ok());
    }
  }
  std::string log;
  {
    std::FILE* f = std::fopen(path_.string().c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buffer[4096];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      log.append(buffer, n);
    }
    std::fclose(f);
  }
  const std::string cut_path = path_.string() + ".cut";
  for (size_t len = 0; len <= log.size(); ++len) {
    std::FILE* f = std::fopen(cut_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(log.data(), 1, len, f), len);
    std::fclose(f);
    Engine recovered("cut");
    Status status = WriteAheadLog::Recover(cut_path, &recovered);
    ASSERT_TRUE(status.ok()) << "cut at " << len << ": " << status.ToString();
    Database* db = recovered.GetDatabase("db");
    Table* items = db == nullptr ? nullptr : db->GetTable("items");
    const int64_t rows =
        items == nullptr ? 0 : static_cast<int64_t>(items->row_count());
    // A committed prefix: transactions 1..rows and nothing else.
    for (int64_t id = 1; id <= kTxns; ++id) {
      EXPECT_EQ(items != nullptr && items->Get(Value(id)).has_value(),
                id <= rows)
          << "cut at " << len << ", row " << id;
    }
    if (len == log.size()) {
      EXPECT_EQ(rows, kTxns);
    }
  }
  std::filesystem::remove(cut_path);
}

}  // namespace
}  // namespace mtdb
