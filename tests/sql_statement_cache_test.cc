// Parse-cache tests (sql::StatementCache, DESIGN.md §9): one shared AST per
// '?' text, a constant bound, no caching of literal texts or parse errors,
// and plans that share the AST and so outlive its eviction. The eviction
// case is a memory-safety check, which is why this binary runs in the
// ASan+UBSan decoder tier (`ctest -L codec`).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sql/executor.h"
#include "src/sql/planner.h"
#include "src/sql/statement_cache.h"

namespace mtdb::sql {
namespace {

int64_t Parses() {
  return obs::MetricsRegistry::Global().SumCounter("mtdb_sql_parse_total");
}

TEST(StatementCacheTest, SameTextReturnsSameStatement) {
  StatementCache cache;
  const std::string text = "SELECT v FROM t WHERE id = ?";
  int64_t before = Parses();
  auto first = cache.Parse(text);
  auto second = cache.Parse(std::string(text));
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(Parses() - before, 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(StatementCacheTest, SizeStaysAtTheBound) {
  StatementCache cache;
  const size_t texts = StatementCache::kCapacity + 16;
  for (size_t i = 0; i < texts; ++i) {
    std::string text = "SELECT v FROM t WHERE id = ? + ";
    text += std::to_string(i);
    ASSERT_TRUE(cache.Parse(text).ok());
    EXPECT_EQ(cache.size(), std::min(i + 1, StatementCache::kCapacity));
  }
  EXPECT_EQ(cache.size(), StatementCache::kCapacity);
}

TEST(StatementCacheTest, HitTextSurvivesTheClockHand) {
  StatementCache cache;
  const std::string hot = "SELECT v FROM t WHERE id = ?";
  ASSERT_TRUE(cache.Parse(hot).ok());
  // Each round adds half a cache of cold texts, so the second round fills
  // the cache and the third evicts. A hit on `hot` before each round marks
  // it: the hand spares it (FIFO would have evicted it, the oldest text,
  // at the end of the second round) and takes cold texts instead.
  for (size_t round = 0; round < 4; ++round) {
    int64_t before = Parses();
    ASSERT_TRUE(cache.Parse(hot).ok());
    EXPECT_EQ(Parses(), before) << "round " << round;
    if (round == 3) break;
    for (size_t i = 0; i < StatementCache::kCapacity / 2; ++i) {
      std::string text = "SELECT id FROM t WHERE v = ? + ";
      text += std::to_string(round * StatementCache::kCapacity + i);
      ASSERT_TRUE(cache.Parse(text).ok());
    }
  }
  EXPECT_EQ(cache.size(), StatementCache::kCapacity);
}

TEST(StatementCacheTest, LiteralTextsAndParseErrorsAreNeverCached) {
  StatementCache cache;
  int64_t before = Parses();
  for (int i = 0; i < 2; ++i) {
    auto literal = cache.Parse("SELECT v FROM t WHERE id = 7");
    ASSERT_TRUE(literal.ok());
    auto broken = cache.Parse("SELECT FROM t WHERE id = ?");
    EXPECT_EQ(broken.status().code(), StatusCode::kParseError);
  }
  // Both texts parsed on every call, and neither took a slot.
  EXPECT_EQ(Parses() - before, 4);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(StatementCacheTest, PlanRunsAfterItsTextIsEvicted) {
  Engine engine("site");
  SqlExecutor executor(&engine);
  ASSERT_TRUE(engine.CreateDatabase("app").ok());
  uint64_t txn = 1;
  auto run = [&](const PlannedStatement& plan,
                 const std::vector<Value>& params) {
    EXPECT_TRUE(engine.Begin(txn).ok());
    auto result = executor.ExecutePlan(txn, "app", plan, params);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(engine.Commit(txn).ok());
    ++txn;
    return result.ok() ? *result : QueryResult{};
  };
  ASSERT_TRUE(engine.Begin(txn).ok());
  ASSERT_TRUE(executor
                  .ExecuteSql(txn, "app",
                              "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
                  .ok());
  ASSERT_TRUE(
      executor.ExecuteSql(txn, "app", "INSERT INTO t VALUES (1, 10), (2, 20)")
          .ok());
  ASSERT_TRUE(engine.Commit(txn++).ok());

  StatementCache cache;
  const std::string text = "SELECT v FROM t WHERE id = ?";
  std::shared_ptr<const PlannedStatement> plan;
  {
    auto stmt = cache.Parse(text);
    ASSERT_TRUE(stmt.ok());
    auto planned = Planner(&engine).Plan("app", *stmt);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    plan = *planned;
  }
  EXPECT_EQ(run(*plan, {Value(int64_t{1})}).at(0, 0).AsInt(), 10);

  // Cycle the cache with other texts: `text` is never hit, so the hand
  // evicts it, and only the plan still holds its AST.
  for (size_t i = 0; i < StatementCache::kCapacity; ++i) {
    std::string other = "SELECT id FROM t WHERE v = ? + ";
    other += std::to_string(i);
    ASSERT_TRUE(cache.Parse(other).ok());
  }
  QueryResult after = run(*plan, {Value(int64_t{2})});
  ASSERT_EQ(after.rows.size(), 1u);
  EXPECT_EQ(after.at(0, 0).AsInt(), 20);

  // It really was evicted: asking for it again parses.
  int64_t before = Parses();
  ASSERT_TRUE(cache.Parse(text).ok());
  EXPECT_EQ(Parses() - before, 1);
}

}  // namespace
}  // namespace mtdb::sql
