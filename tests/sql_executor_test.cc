#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>

#include "src/sql/executor.h"

namespace mtdb::sql {
namespace {

// End-to-end SQL tests: parse + plan + execute against a real engine.
class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineOptions options;
    options.record_history = true;
    options.lock_options.lock_timeout_us = 500'000;
    engine_ = std::make_unique<Engine>("site", options);
    executor_ = std::make_unique<SqlExecutor>(engine_.get());
    ASSERT_TRUE(engine_->CreateDatabase("app").ok());
    Exec("CREATE TABLE items (id INT PRIMARY KEY, name VARCHAR(40), "
         "cat VARCHAR(10), price DOUBLE, qty INT)");
    Exec("CREATE INDEX idx_cat ON items (cat)");
    Exec("INSERT INTO items VALUES "
         "(1, 'alpha', 'book', 10.0, 5), "
         "(2, 'bravo', 'book', 20.0, 0), "
         "(3, 'charlie', 'toy', 30.0, 7), "
         "(4, 'delta', 'toy', 40.0, 2), "
         "(5, 'echo', 'food', 5.5, 9)");
  }

  QueryResult Exec(const std::string& sql,
                   const std::vector<Value>& params = {}) {
    uint64_t txn = next_txn_++;
    EXPECT_TRUE(engine_->Begin(txn).ok());
    auto result = executor_->ExecuteSql(txn, "app", sql, params);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    EXPECT_TRUE(engine_->Commit(txn).ok());
    return result.ok() ? *result : QueryResult{};
  }

  Status ExecExpectError(const std::string& sql) {
    uint64_t txn = next_txn_++;
    EXPECT_TRUE(engine_->Begin(txn).ok());
    auto result = executor_->ExecuteSql(txn, "app", sql);
    EXPECT_TRUE(engine_->Abort(txn).ok());
    return result.ok() ? Status::OK() : result.status();
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<SqlExecutor> executor_;
  uint64_t next_txn_ = 1;
};

TEST_F(SqlTest, SelectStar) {
  QueryResult r = Exec("SELECT * FROM items");
  EXPECT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.columns.size(), 5u);
  EXPECT_EQ(r.columns[0], "id");
}

TEST_F(SqlTest, PointLookupByPk) {
  QueryResult r = Exec("SELECT name FROM items WHERE id = 3");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.at(0, 0).AsString(), "charlie");
}

TEST_F(SqlTest, PointLookupWithParam) {
  QueryResult r = Exec("SELECT name FROM items WHERE id = ?",
                       {Value(int64_t{2})});
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.at(0, 0).AsString(), "bravo");
}

TEST_F(SqlTest, IndexLookup) {
  QueryResult r = Exec("SELECT id FROM items WHERE cat = 'toy' ORDER BY id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.at(0, 0).AsInt(), 3);
  EXPECT_EQ(r.at(1, 0).AsInt(), 4);
}

TEST_F(SqlTest, RangeScanOnPk) {
  QueryResult r = Exec("SELECT id FROM items WHERE id >= 2 AND id < 5");
  ASSERT_EQ(r.rows.size(), 3u);
  // Bounds that cross give an empty range.
  EXPECT_EQ(Exec("SELECT id FROM items WHERE id > 4 AND id < 2").rows.size(),
            0u);
}

TEST_F(SqlTest, PredicateCombinations) {
  EXPECT_EQ(Exec("SELECT id FROM items WHERE price > 15 AND qty > 0").rows.size(),
            2u);
  EXPECT_EQ(
      Exec("SELECT id FROM items WHERE cat = 'book' OR cat = 'food'").rows.size(),
      3u);
  EXPECT_EQ(Exec("SELECT id FROM items WHERE NOT cat = 'book'").rows.size(), 3u);
  EXPECT_EQ(Exec("SELECT id FROM items WHERE id IN (1, 3, 9)").rows.size(), 2u);
  EXPECT_EQ(Exec("SELECT id FROM items WHERE id NOT IN (1, 3)").rows.size(), 3u);
  EXPECT_EQ(Exec("SELECT id FROM items WHERE price BETWEEN 10 AND 30").rows.size(),
            3u);
  EXPECT_EQ(Exec("SELECT id FROM items WHERE name LIKE '%a%'").rows.size(), 4u);
  EXPECT_EQ(Exec("SELECT id FROM items WHERE name LIKE '_ravo'").rows.size(), 1u);
}

TEST_F(SqlTest, ArithmeticInProjection) {
  QueryResult r = Exec("SELECT price * qty AS total FROM items WHERE id = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.at(0, 0).AsDouble(), 50.0);
  EXPECT_EQ(r.columns[0], "total");
}

TEST_F(SqlTest, IntegerArithmetic) {
  QueryResult r = Exec("SELECT qty + 1, qty - 1, qty * 2, qty % 2 "
                       "FROM items WHERE id = 3");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.at(0, 0).AsInt(), 8);
  EXPECT_EQ(r.at(0, 1).AsInt(), 6);
  EXPECT_EQ(r.at(0, 2).AsInt(), 14);
  EXPECT_EQ(r.at(0, 3).AsInt(), 1);
}

TEST_F(SqlTest, DivisionYieldsDoubleAndNullOnZero) {
  QueryResult r = Exec("SELECT 7 / 2, 7 / 0 FROM items WHERE id = 1");
  EXPECT_DOUBLE_EQ(r.at(0, 0).AsDouble(), 3.5);
  EXPECT_TRUE(r.at(0, 1).is_null());
}

TEST_F(SqlTest, OrderByAscDesc) {
  QueryResult r = Exec("SELECT id FROM items ORDER BY price DESC");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.at(0, 0).AsInt(), 4);
  EXPECT_EQ(r.at(4, 0).AsInt(), 5);

  QueryResult r2 = Exec("SELECT id FROM items ORDER BY cat, price DESC");
  EXPECT_EQ(r2.at(0, 0).AsInt(), 2);  // book 20 before book 10
  EXPECT_EQ(r2.at(1, 0).AsInt(), 1);
}

TEST_F(SqlTest, Limit) {
  EXPECT_EQ(Exec("SELECT id FROM items ORDER BY id LIMIT 2").rows.size(), 2u);
  EXPECT_EQ(Exec("SELECT id FROM items LIMIT 0").rows.size(), 0u);
  EXPECT_EQ(Exec("SELECT id FROM items LIMIT 99").rows.size(), 5u);
}

TEST_F(SqlTest, AggregatesWholeTable) {
  QueryResult r = Exec(
      "SELECT COUNT(*), SUM(qty), AVG(price), MIN(price), MAX(price) "
      "FROM items");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.at(0, 0).AsInt(), 5);
  EXPECT_EQ(r.at(0, 1).AsInt(), 23);
  EXPECT_DOUBLE_EQ(r.at(0, 2).AsDouble(), 21.1);
  EXPECT_DOUBLE_EQ(r.at(0, 3).AsDouble(), 5.5);
  EXPECT_DOUBLE_EQ(r.at(0, 4).AsDouble(), 40.0);
}

TEST_F(SqlTest, AggregateOverEmptySet) {
  QueryResult r =
      Exec("SELECT COUNT(*), SUM(qty), MIN(qty) FROM items WHERE id > 100");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.at(0, 0).AsInt(), 0);
  EXPECT_TRUE(r.at(0, 1).is_null());
  EXPECT_TRUE(r.at(0, 2).is_null());
  // Over a full scan too, and for every aggregate: without GROUP BY there
  // is one group even over no rows.
  QueryResult whole = Exec(
      "SELECT COUNT(price), AVG(price), MAX(name) FROM items WHERE qty > 100");
  ASSERT_EQ(whole.rows.size(), 1u);
  EXPECT_EQ(whole.at(0, 0).AsInt(), 0);
  EXPECT_TRUE(whole.at(0, 1).is_null());
  EXPECT_TRUE(whole.at(0, 2).is_null());
  // HAVING can still drop that one group.
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM items WHERE qty > 100 "
                 "HAVING COUNT(*) > 0")
                .rows.size(),
            0u);
  // With GROUP BY, no rows means no groups.
  EXPECT_EQ(Exec("SELECT cat, COUNT(*) FROM items WHERE qty > 100 "
                 "GROUP BY cat")
                .rows.size(),
            0u);
}

TEST_F(SqlTest, GroupByDoubleKeysUsesValueEquality) {
  // Keys that agree to six decimals are still different values.
  Exec("CREATE TABLE m (id INT PRIMARY KEY, x DOUBLE)");
  Exec("INSERT INTO m VALUES (1, 0.1000001), (2, 0.1000002), (3, 0.1000002)");
  QueryResult r = Exec("SELECT x, COUNT(*) FROM m GROUP BY x ORDER BY x");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(r.at(0, 0).AsDouble(), 0.1000001);
  EXPECT_EQ(r.at(0, 1).AsInt(), 1);
  EXPECT_DOUBLE_EQ(r.at(1, 0).AsDouble(), 0.1000002);
  EXPECT_EQ(r.at(1, 1).AsInt(), 2);
  // NULL keys form one group, as they do under every GROUP BY.
  Exec("INSERT INTO m (id) VALUES (4), (5)");
  QueryResult nulls =
      Exec("SELECT COUNT(*) FROM m WHERE x IS NULL GROUP BY x");
  ASSERT_EQ(nulls.rows.size(), 1u);
  EXPECT_EQ(nulls.at(0, 0).AsInt(), 2);
}

TEST_F(SqlTest, GroupByAndJoinOnStringsAcrossTheInlineLimit) {
  // A Value keeps strings of up to 15 bytes inline and longer ones on the
  // heap: equal strings group and join alike on either side of that limit.
  const std::string k15(15, 'k');
  const std::string k16(16, 'k');
  const std::string k40(40, 'k');
  Exec("CREATE TABLE s (id INT PRIMARY KEY, k VARCHAR(40))");
  Exec("INSERT INTO s VALUES (1, '" + k15 + "'), (2, '" + k16 + "'), (3, '" +
       k15 + "'), (4, '" + k40 + "'), (5, '" + k16 + "'), (6, '" + k16 +
       "'), (7, '')");
  QueryResult r = Exec("SELECT k, COUNT(*) FROM s GROUP BY k ORDER BY k");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.at(0, 0).AsString(), "");
  EXPECT_EQ(r.at(0, 1).AsInt(), 1);
  EXPECT_EQ(r.at(1, 0).AsString(), k15);
  EXPECT_EQ(r.at(1, 1).AsInt(), 2);
  EXPECT_EQ(r.at(2, 0).AsString(), k16);
  EXPECT_EQ(r.at(2, 1).AsInt(), 3);
  EXPECT_EQ(r.at(3, 0).AsString(), k40);
  EXPECT_EQ(r.at(3, 1).AsInt(), 1);

  Exec("CREATE TABLE t (name VARCHAR(40) PRIMARY KEY, w INT)");
  Exec("INSERT INTO t VALUES ('" + k15 + "', 10), ('" + k16 + "', 20)");
  QueryResult joined = Exec(
      "SELECT t.w, COUNT(*) FROM s JOIN t ON s.k = t.name GROUP BY t.w "
      "ORDER BY t.w");
  ASSERT_EQ(joined.rows.size(), 2u);
  EXPECT_EQ(joined.at(0, 0).AsInt(), 10);
  EXPECT_EQ(joined.at(0, 1).AsInt(), 2);
  EXPECT_EQ(joined.at(1, 0).AsInt(), 20);
  EXPECT_EQ(joined.at(1, 1).AsInt(), 3);
}

TEST_F(SqlTest, HavingAndOrderByOnAggregatesAbsentFromSelectList) {
  // book: qty 5, max price 20; toy: qty 9, max 40; food: qty 9, max 5.5.
  QueryResult r = Exec(
      "SELECT cat FROM items GROUP BY cat HAVING SUM(qty) > 5 "
      "ORDER BY MAX(price) DESC");
  ASSERT_EQ(r.columns.size(), 1u);
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.at(0, 0).AsString(), "toy");
  EXPECT_EQ(r.at(1, 0).AsString(), "food");
}

TEST_F(SqlTest, LimitWithoutOrderByStopsAFilteredScan) {
  uint64_t txn = next_txn_++;
  ASSERT_TRUE(engine_->Begin(txn).ok());
  auto r = executor_->ExecuteSql(txn, "app",
                                 "SELECT id FROM items WHERE qty > 1 LIMIT 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(engine_->Commit(txn).ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->at(0, 0).AsInt(), 1);  // qty 5
  EXPECT_EQ(r->at(1, 0).AsInt(), 3);  // qty 7; id 2 (qty 0) is filtered
  // The scan stopped at the second match: rows 4 and 5 were never read.
  std::vector<CommittedTxnRecord> history = engine_->GetHistory();
  ASSERT_FALSE(history.empty());
  EXPECT_EQ(history.back().txn_id, txn);
  EXPECT_EQ(history.back().reads.size(), 3u);
}

TEST_F(SqlTest, GroupByWithHaving) {
  QueryResult r = Exec(
      "SELECT cat, COUNT(*) AS n, SUM(qty) AS total FROM items "
      "GROUP BY cat HAVING COUNT(*) >= 2 ORDER BY cat");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.at(0, 0).AsString(), "book");
  EXPECT_EQ(r.at(0, 1).AsInt(), 2);
  EXPECT_EQ(r.at(0, 2).AsInt(), 5);
  EXPECT_EQ(r.at(1, 0).AsString(), "toy");
}

TEST_F(SqlTest, OrderByAggregateAlias) {
  QueryResult r = Exec(
      "SELECT cat, SUM(qty) AS total FROM items GROUP BY cat "
      "ORDER BY total DESC");
  ASSERT_EQ(r.rows.size(), 3u);
  // totals: book=5, toy=9, food=9; stable sort keeps toy (seen first) ahead
  // of food on the tie.
  EXPECT_EQ(r.at(0, 1).AsInt(), 9);
  EXPECT_EQ(r.at(0, 0).AsString(), "toy");
  EXPECT_EQ(r.at(2, 0).AsString(), "book");
}

TEST_F(SqlTest, JoinOnPk) {
  Exec("CREATE TABLE orders (oid INT PRIMARY KEY, item_id INT, n INT)");
  Exec("INSERT INTO orders VALUES (100, 1, 2), (101, 3, 1), (102, 1, 4)");
  QueryResult r = Exec(
      "SELECT o.oid, i.name, o.n * i.price AS amount "
      "FROM orders o JOIN items i ON o.item_id = i.id ORDER BY o.oid");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.at(0, 1).AsString(), "alpha");
  EXPECT_DOUBLE_EQ(r.at(0, 2).AsDouble(), 20.0);
  EXPECT_EQ(r.at(1, 1).AsString(), "charlie");
}

TEST_F(SqlTest, JoinViaSecondaryIndex) {
  Exec("CREATE TABLE cats (name VARCHAR(10) PRIMARY KEY, tax DOUBLE)");
  Exec("INSERT INTO cats VALUES ('book', 0.0), ('toy', 0.2), ('food', 0.1)");
  QueryResult r = Exec(
      "SELECT c.name, COUNT(*) AS n FROM cats c JOIN items i "
      "ON i.cat = c.name GROUP BY c.name ORDER BY c.name");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.at(0, 0).AsString(), "book");
  EXPECT_EQ(r.at(0, 1).AsInt(), 2);
}

TEST_F(SqlTest, JoinProbeWaitsOnARowLockOutsideTheScanLatch) {
  // A generous lock timeout: the reader below waits on purpose.
  EngineOptions options;
  options.lock_options.lock_timeout_us = 10'000'000;
  Engine engine("site", options);
  SqlExecutor executor(&engine);
  ASSERT_TRUE(engine.CreateDatabase("app").ok());
  auto run = [&](uint64_t txn, const std::string& sql) {
    return executor.ExecuteSql(txn, "app", sql);
  };
  ASSERT_TRUE(engine.Begin(1).ok());
  ASSERT_TRUE(run(1, "CREATE TABLE items (id INT PRIMARY KEY, qty INT)").ok());
  ASSERT_TRUE(run(1, "CREATE TABLE orders (oid INT PRIMARY KEY, item INT)")
                  .ok());
  ASSERT_TRUE(run(1, "INSERT INTO items VALUES (1, 5), (3, 7)").ok());
  ASSERT_TRUE(run(1, "INSERT INTO orders VALUES (100, 1), (101, 3)").ok());
  ASSERT_TRUE(engine.Commit(1).ok());

  // The writer holds item 3's row X lock.
  ASSERT_TRUE(engine.Begin(2).ok());
  ASSERT_TRUE(run(2, "UPDATE items SET qty = 70 WHERE id = 3").ok());

  // The reader scans orders, then probes items by PK: its probe of item 3
  // waits for the writer.
  ASSERT_TRUE(engine.Begin(3).ok());
  auto reader = std::async(std::launch::async, [&] {
    return run(3,
               "SELECT o.oid, i.qty FROM orders o JOIN items i "
               "ON o.item = i.id ORDER BY o.oid");
  });
  EXPECT_EQ(reader.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);

  // While the probe waits, the scanned table's latch is free: a write that
  // takes only the latch (no lock) goes through.
  Table* orders = engine.GetDatabase("app")->GetTable("orders");
  auto latch_write = std::async(std::launch::async, [orders] {
    return orders->Insert({Value(int64_t{102}), Value(int64_t{1})},
                          orders->NextVersion());
  });
  ASSERT_EQ(latch_write.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_TRUE(latch_write.get());

  ASSERT_TRUE(engine.Commit(2).ok());
  auto result = reader.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(engine.Commit(3).ok());
  // Row 102 arrived after the reader's scan and is not in its answer.
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->at(0, 1).AsInt(), 5);
  EXPECT_EQ(result->at(1, 1).AsInt(), 70);
}

TEST_F(SqlTest, CommaJoinWithWhere) {
  Exec("CREATE TABLE orders (oid INT PRIMARY KEY, item_id INT, n INT)");
  Exec("INSERT INTO orders VALUES (100, 2, 1)");
  QueryResult r = Exec(
      "SELECT items.name FROM orders, items WHERE orders.item_id = items.id");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.at(0, 0).AsString(), "bravo");
}

TEST_F(SqlTest, ThreeWayJoin) {
  Exec("CREATE TABLE orders (oid INT PRIMARY KEY, cust INT, item_id INT)");
  Exec("CREATE TABLE customers (cid INT PRIMARY KEY, cname VARCHAR(20))");
  Exec("INSERT INTO customers VALUES (1, 'ann'), (2, 'bob')");
  Exec("INSERT INTO orders VALUES (10, 1, 5), (11, 2, 1)");
  QueryResult r = Exec(
      "SELECT c.cname, i.name FROM orders o "
      "JOIN customers c ON o.cust = c.cid "
      "JOIN items i ON o.item_id = i.id ORDER BY o.oid");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.at(0, 0).AsString(), "ann");
  EXPECT_EQ(r.at(0, 1).AsString(), "echo");
}

TEST_F(SqlTest, UpdateByPk) {
  QueryResult r = Exec("UPDATE items SET qty = 99 WHERE id = 2");
  EXPECT_EQ(r.affected_rows, 1);
  EXPECT_EQ(Exec("SELECT qty FROM items WHERE id = 2").at(0, 0).AsInt(), 99);
}

TEST_F(SqlTest, UpdateComputedFromOldValue) {
  Exec("UPDATE items SET qty = qty + 10, price = price * 2 WHERE id = 1");
  QueryResult r = Exec("SELECT qty, price FROM items WHERE id = 1");
  EXPECT_EQ(r.at(0, 0).AsInt(), 15);
  EXPECT_DOUBLE_EQ(r.at(0, 1).AsDouble(), 20.0);
}

TEST_F(SqlTest, UpdateWithPredicateTouchesOnlyMatches) {
  QueryResult r = Exec("UPDATE items SET qty = 0 WHERE cat = 'toy'");
  EXPECT_EQ(r.affected_rows, 2);
  EXPECT_EQ(Exec("SELECT SUM(qty) FROM items").at(0, 0).AsInt(), 14);
}

TEST_F(SqlTest, UpdateMaintainsSecondaryIndex) {
  Exec("UPDATE items SET cat = 'book' WHERE id = 5");
  EXPECT_EQ(Exec("SELECT id FROM items WHERE cat = 'book'").rows.size(), 3u);
  EXPECT_EQ(Exec("SELECT id FROM items WHERE cat = 'food'").rows.size(), 0u);
}

TEST_F(SqlTest, DeleteByPkAndPredicate) {
  EXPECT_EQ(Exec("DELETE FROM items WHERE id = 1").affected_rows, 1);
  EXPECT_EQ(Exec("DELETE FROM items WHERE qty = 0").affected_rows, 1);
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM items").at(0, 0).AsInt(), 3);
}

TEST_F(SqlTest, InsertPartialColumnsFillsNull) {
  Exec("INSERT INTO items (id, name) VALUES (10, 'kilo')");
  QueryResult r = Exec("SELECT price FROM items WHERE id = 10");
  EXPECT_TRUE(r.at(0, 0).is_null());
}

TEST_F(SqlTest, NullComparisonsExcludeRows) {
  Exec("INSERT INTO items (id, name) VALUES (10, 'kilo')");
  // NULL price row must not match either side of the predicate.
  EXPECT_EQ(Exec("SELECT id FROM items WHERE price > 0").rows.size(), 5u);
  EXPECT_EQ(Exec("SELECT id FROM items WHERE price <= 0").rows.size(), 0u);
  EXPECT_EQ(Exec("SELECT id FROM items WHERE price IS NULL").rows.size(), 1u);
  EXPECT_EQ(Exec("SELECT id FROM items WHERE price IS NOT NULL").rows.size(),
            5u);
}

TEST_F(SqlTest, RollbackUndoesSqlEffects) {
  uint64_t txn = next_txn_++;
  ASSERT_TRUE(engine_->Begin(txn).ok());
  ASSERT_TRUE(executor_
                  ->ExecuteSql(txn, "app",
                               "UPDATE items SET qty = 1000 WHERE id = 1")
                  .ok());
  ASSERT_TRUE(engine_->Abort(txn).ok());
  EXPECT_EQ(Exec("SELECT qty FROM items WHERE id = 1").at(0, 0).AsInt(), 5);
}

TEST_F(SqlTest, MultiStatementTransaction) {
  uint64_t txn = next_txn_++;
  ASSERT_TRUE(engine_->Begin(txn).ok());
  ASSERT_TRUE(executor_
                  ->ExecuteSql(txn, "app",
                               "INSERT INTO items VALUES "
                               "(20, 'x', 'b', 1.0, 1)")
                  .ok());
  auto mid = executor_->ExecuteSql(txn, "app",
                                   "SELECT COUNT(*) FROM items");
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->at(0, 0).AsInt(), 6);  // sees own write
  ASSERT_TRUE(engine_->Commit(txn).ok());
}

TEST_F(SqlTest, ErrorsSurfaceCleanly) {
  EXPECT_EQ(ExecExpectError("SELECT zzz FROM items").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ExecExpectError("SELECT id FROM missing").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ExecExpectError("INSERT INTO items VALUES (1)").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ExecExpectError("SELECT id FROM").code(), StatusCode::kParseError);
  EXPECT_EQ(
      ExecExpectError("INSERT INTO items VALUES (1, 'dup', 'b', 1.0, 1)")
          .code(),
      StatusCode::kAlreadyExists);
}

TEST_F(SqlTest, AmbiguousColumnDetected) {
  Exec("CREATE TABLE other (id INT PRIMARY KEY, name VARCHAR(5))");
  Exec("INSERT INTO other VALUES (1, 'z')");
  Status s = ExecExpectError(
      "SELECT name FROM items, other WHERE items.id = other.id");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(SqlTest, QualifiedColumnsDisambiguate) {
  Exec("CREATE TABLE other (id INT PRIMARY KEY, name VARCHAR(5))");
  Exec("INSERT INTO other VALUES (1, 'z')");
  QueryResult r = Exec(
      "SELECT items.name, other.name FROM items, other "
      "WHERE items.id = other.id");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.at(0, 0).AsString(), "alpha");
  EXPECT_EQ(r.at(0, 1).AsString(), "z");
}

TEST_F(SqlTest, DdlThroughSql) {
  Exec("CREATE TABLE t2 (a INT PRIMARY KEY, b VARCHAR(5))");
  Exec("CREATE INDEX idx_b ON t2 (b)");
  Exec("INSERT INTO t2 VALUES (1, 'q')");
  EXPECT_EQ(Exec("SELECT a FROM t2 WHERE b = 'q'").rows.size(), 1u);
  Exec("DROP TABLE t2");
  EXPECT_EQ(ExecExpectError("SELECT a FROM t2").code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace mtdb::sql
