// Planner and plan-cache tests (DESIGN.md §9).
//
// Covers the split of the SQL path into parse → plan → execute:
//  * EXPLAIN goldens proving access-path and join-strategy selection (PK
//    probe over scan, index-assisted joins, lock scope of mutations);
//  * the engine plan cache, the engine's only statement cache: hit/miss
//    accounting, the size bound, and schema-version invalidation (CREATE
//    INDEX re-plans a cached full scan into an index probe; DROP TABLE
//    surfaces kNotFound, not a crash).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/sql/executor.h"
#include "src/sql/planner.h"

namespace mtdb::sql {
namespace {

class SqlPlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>("site");
    executor_ = std::make_unique<SqlExecutor>(engine_.get());
    ASSERT_TRUE(engine_->CreateDatabase("app").ok());
    Exec("CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR(40), "
         "i_subject VARCHAR(20), i_a_id INT, i_cost DOUBLE)");
    Exec("CREATE TABLE author (a_id INT PRIMARY KEY, a_name VARCHAR(40))");
    Exec("INSERT INTO author VALUES (1, 'knuth'), (2, 'lamport')");
    Exec("INSERT INTO item VALUES "
         "(1, 'taocp', 'CS', 1, 100.0), "
         "(2, 'paxos', 'CS', 2, 20.0), "
         "(3, 'cooking', 'FOOD', 2, 15.0)");
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

  // Runs EXPLAIN <sql> and joins the one-line-per-operator result rows.
  std::string Explain(const std::string& sql) {
    QueryResult r = Exec("EXPLAIN " + sql);
    EXPECT_EQ(r.columns, std::vector<std::string>{"plan"});
    std::string text;
    for (const Row& row : r.rows) {
      if (!text.empty()) text += "\n";
      text += row.at(0).AsString();
    }
    return text;
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<SqlExecutor> executor_;
  uint64_t next_txn_ = 1;
};

// --- EXPLAIN goldens: access-path selection ---

TEST_F(SqlPlannerTest, ExplainPicksPkPointOverScan) {
  std::string plan = Explain("SELECT i_title FROM item WHERE i_id = 2");
  EXPECT_NE(plan.find("scan item [pk-point]"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("full-scan"), std::string::npos) << plan;
}

TEST_F(SqlPlannerTest, ExplainFallsBackToFullScanWithoutIndex) {
  std::string plan = Explain("SELECT * FROM item WHERE i_subject = 'CS'");
  EXPECT_NE(plan.find("scan item [full-scan]"), std::string::npos) << plan;
}

TEST_F(SqlPlannerTest, ExplainUsesIndexProbeWhenIndexExists) {
  Exec("CREATE INDEX idx_subject ON item (i_subject)");
  std::string plan = Explain("SELECT * FROM item WHERE i_subject = 'CS'");
  EXPECT_NE(plan.find("scan item [index-probe(i_subject)]"),
            std::string::npos)
      << plan;
}

TEST_F(SqlPlannerTest, ExplainUsesPkRangeForInequalities) {
  std::string plan = Explain("SELECT * FROM item WHERE i_id < 3");
  EXPECT_NE(plan.find("scan item [pk-range]"), std::string::npos) << plan;
}

TEST_F(SqlPlannerTest, ExplainShowsFilterSortAndLimit) {
  std::string plan = Explain(
      "SELECT i_title FROM item WHERE i_cost > 10.0 "
      "ORDER BY i_cost DESC LIMIT 2");
  EXPECT_NE(plan.find("filter"), std::string::npos) << plan;
  EXPECT_NE(plan.find("sort i_cost desc"), std::string::npos) << plan;
  EXPECT_NE(plan.find("limit 2"), std::string::npos) << plan;
}

// --- EXPLAIN goldens: join strategies ---

TEST_F(SqlPlannerTest, ExplainJoinProbesInnerPrimaryKey) {
  std::string plan = Explain(
      "SELECT i.i_title, a.a_name FROM item i "
      "JOIN author a ON i.i_a_id = a.a_id WHERE i.i_id = 1");
  EXPECT_NE(plan.find("join author as a [pk-probe]"), std::string::npos)
      << plan;
}

TEST_F(SqlPlannerTest, ExplainJoinUsesIndexWhenInnerHasOne) {
  Exec("CREATE INDEX idx_a_id ON item (i_a_id)");
  std::string plan = Explain(
      "SELECT a.a_name, i.i_title FROM author a "
      "JOIN item i ON i.i_a_id = a.a_id");
  EXPECT_NE(plan.find("join item as i [index-probe(i_a_id)]"),
            std::string::npos)
      << plan;
}

TEST_F(SqlPlannerTest, ExplainJoinDegradesToNestedLoopWithoutKeys) {
  std::string plan = Explain(
      "SELECT i.i_title FROM item i JOIN author a ON i.i_cost > a.a_id");
  EXPECT_NE(plan.find("join author as a [nested-loop-scan]"),
            std::string::npos)
      << plan;
}

// --- EXPLAIN goldens: mutation lock scope ---

TEST_F(SqlPlannerTest, ExplainUpdateByPkAvoidsTableLock) {
  std::string plan = Explain("UPDATE item SET i_cost = 1.0 WHERE i_id = 2");
  EXPECT_NE(plan.find("update item [pk-point]"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("table-x-lock"), std::string::npos) << plan;
}

TEST_F(SqlPlannerTest, ExplainNonKeyedUpdateTakesTableLock) {
  std::string plan =
      Explain("UPDATE item SET i_cost = 1.0 WHERE i_subject = 'CS'");
  EXPECT_NE(plan.find("update item [full-scan] [table-x-lock]"),
            std::string::npos)
      << plan;
}

TEST_F(SqlPlannerTest, ExplainDeleteByPk) {
  std::string plan = Explain("DELETE FROM item WHERE i_id = 3");
  EXPECT_NE(plan.find("delete item [pk-point]"), std::string::npos) << plan;
}

// --- Plan cache ---

TEST_F(SqlPlannerTest, ParameterizedStatementsHitThePlanCache) {
  const std::string sql = "SELECT i_title FROM item WHERE i_id = ?";
  int64_t misses_before = engine_->plan_cache_misses();
  Exec(sql, {Value(int64_t{1})});
  Exec(sql, {Value(int64_t{2})});
  Exec(sql, {Value(int64_t{3})});
  EXPECT_EQ(engine_->plan_cache_misses() - misses_before, 1);
  EXPECT_GE(engine_->plan_cache_hits(), 2);
}

TEST_F(SqlPlannerTest, UnparameterizedStatementsAreNotCached) {
  size_t size_before = engine_->plan_cache_size();
  Exec("SELECT i_title FROM item WHERE i_id = 1");
  Exec("SELECT i_title FROM item WHERE i_id = 1");
  EXPECT_EQ(engine_->plan_cache_size(), size_before);
}

TEST_F(SqlPlannerTest, CachedPlansAreSharedObjects) {
  const std::string sql = "SELECT i_title FROM item WHERE i_id = ?";
  auto first = engine_->GetPlan("app", sql);
  auto second = engine_->GetPlan("app", sql);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->get(), second->get());
}

TEST_F(SqlPlannerTest, PlanCacheIsBounded) {
  // The MachineService statement cache this subsumes was bounded at 512
  // entries; the engine plan cache keeps that bound.
  for (int i = 0; i < 600; ++i) {
    auto plan = engine_->GetPlan(
        "app",
        "SELECT i_title FROM item WHERE i_id = ? AND i_cost < " +
            std::to_string(i));
    ASSERT_TRUE(plan.ok());
  }
  EXPECT_LE(engine_->plan_cache_size(), 512u);
  EXPECT_GT(engine_->plan_cache_size(), 0u);
}

// The bound is an LRU: a hit renews an entry, and a full cache evicts the
// entry used longest ago.
TEST_F(SqlPlannerTest, PlanCacheEvictsLeastRecentlyUsed) {
  auto text = [](int i) {
    return "SELECT i_title FROM item WHERE i_id = ? AND i_cost < " +
           std::to_string(i);
  };
  ASSERT_EQ(engine_->plan_cache_size(), 0u);
  for (int i = 0; i < 512; ++i) {
    ASSERT_TRUE(engine_->GetPlan("app", text(i)).ok());
  }
  ASSERT_EQ(engine_->plan_cache_size(), 512u);
  auto oldest = engine_->GetPlan("app", text(0));  // a hit renews it
  ASSERT_TRUE(oldest.ok());
  ASSERT_TRUE(engine_->GetPlan("app", text(512)).ok());
  EXPECT_EQ(engine_->plan_cache_size(), 512u);

  int64_t misses_before = engine_->plan_cache_misses();
  auto renewed = engine_->GetPlan("app", text(0));
  ASSERT_TRUE(renewed.ok());
  EXPECT_EQ(renewed->get(), oldest->get());
  EXPECT_EQ(engine_->plan_cache_misses(), misses_before);
  ASSERT_TRUE(engine_->GetPlan("app", text(1)).ok());  // evicted: re-planned
  EXPECT_EQ(engine_->plan_cache_misses(), misses_before + 1);
}

// Dropping a database erases its plans and nobody else's.
TEST_F(SqlPlannerTest, DropDatabaseErasesOnlyItsPlans) {
  ASSERT_TRUE(engine_->CreateDatabase("other").ok());
  ASSERT_TRUE(
      engine_
          ->CreateTable("other", TableSchema("t",
                                             {{"id", ColumnType::kInt64, true},
                                              {"v", ColumnType::kInt64, false}},
                                             0))
          .ok());
  const std::string app_sql = "SELECT i_title FROM item WHERE i_id = ?";
  const std::string other_sql = "SELECT v FROM t WHERE id = ?";
  ASSERT_TRUE(engine_->GetPlan("app", app_sql).ok());
  auto other_plan = engine_->GetPlan("other", other_sql);
  ASSERT_TRUE(other_plan.ok());
  ASSERT_EQ(engine_->plan_cache_size(), 2u);

  ASSERT_TRUE(engine_->DropDatabase("app").ok());
  EXPECT_EQ(engine_->plan_cache_size(), 1u);
  auto kept = engine_->GetPlan("other", other_sql);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->get(), other_plan->get());
}

TEST_F(SqlPlannerTest, CreateIndexRePlansCachedFullScan) {
  const std::string sql = "SELECT i_title FROM item WHERE i_subject = ?";
  auto before = engine_->GetPlan("app", sql);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ((*before)->select.driver.path, AccessPathKind::kFullScan);

  Exec("CREATE INDEX idx_subject ON item (i_subject)");

  auto after = engine_->GetPlan("app", sql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->select.driver.path, AccessPathKind::kIndexProbe);
  EXPECT_EQ((*after)->select.driver.index_column, "i_subject");
  // And the re-planned statement still returns correct data.
  QueryResult r = Exec(sql, {Value("CS")});
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(SqlPlannerTest, DropTableInvalidatesCachedPlan) {
  const std::string sql = "SELECT i_title FROM item WHERE i_id = ?";
  ASSERT_TRUE(engine_->GetPlan("app", sql).ok());
  Exec("DROP TABLE item");
  auto plan = engine_->GetPlan("app", sql);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kNotFound);
}

// --- Parameterized statements (the cached-plan path) ---

TEST_F(SqlPlannerTest, PreparedStatementMatchesDirectExecution) {
  // A '?' statement executes through its cached plan; the same statement
  // with the literal inlined is planned from scratch. Both must agree.
  const std::string sql = "SELECT i_title, i_cost FROM item WHERE i_id = ?";
  Exec(sql, {Value(int64_t{1})});  // warm the cache
  int64_t hits_before = engine_->plan_cache_hits();
  QueryResult prepared = Exec(sql, {Value(int64_t{2})});
  EXPECT_EQ(engine_->plan_cache_hits(), hits_before + 1);

  QueryResult direct = Exec("SELECT i_title, i_cost FROM item WHERE i_id = 2");
  ASSERT_EQ(prepared.rows.size(), direct.rows.size());
  EXPECT_EQ(prepared.at(0, 0).AsString(), direct.at(0, 0).AsString());
  EXPECT_EQ(prepared.columns, direct.columns);
}

TEST_F(SqlPlannerTest, PrepareSurfacesPlanningErrors) {
  // Planning errors surface from GetPlan, before any execution.
  auto plan = engine_->GetPlan("app", "SELECT * FROM no_such_table");
  EXPECT_EQ(plan.status().code(), StatusCode::kNotFound);
}

TEST_F(SqlPlannerTest, DroppedTableSurfacesNotFoundThroughPreparedHandle) {
  // The statement text is the handle: once its plan is cached, executing
  // it after DROP TABLE fails with kNotFound instead of running a stale
  // plan against a table that no longer exists.
  const std::string sql = "SELECT i_title FROM item WHERE i_id = ?";
  QueryResult warm = Exec(sql, {Value(int64_t{1})});
  ASSERT_EQ(warm.rows.size(), 1u);
  Exec("DROP TABLE item");
  uint64_t txn = next_txn_++;
  ASSERT_TRUE(engine_->Begin(txn).ok());
  auto result = executor_->ExecuteSql(txn, "app", sql, {Value(int64_t{1})});
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(engine_->Abort(txn).ok());
}

TEST_F(SqlPlannerTest, CreateIndexUpgradesPreparedStatementPlan) {
  // A statement executed before CREATE INDEX keeps executing by the same
  // text afterwards: the DDL costs it one re-plan, onto the new index, and
  // the rows it returns do not change.
  const std::string sql = "SELECT i_title FROM item WHERE i_subject = ?";
  QueryResult before = Exec(sql, {Value("CS")});
  ASSERT_EQ(before.rows.size(), 2u);

  Exec("CREATE INDEX idx_subject ON item (i_subject)");
  int64_t misses_before = engine_->plan_cache_misses();
  QueryResult after = Exec(sql, {Value("CS")});
  EXPECT_EQ(engine_->plan_cache_misses() - misses_before, 1);
  auto plan = engine_->GetPlan("app", sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->select.driver.path, AccessPathKind::kIndexProbe);
  EXPECT_EQ(after.rows.size(), before.rows.size());
}

}  // namespace
}  // namespace mtdb::sql
