// Focused unit tests for compiled expressions: compilation (name
// resolution, aggregate slots), SQL three-valued NULL semantics, LIKE
// matching, arithmetic typing, and operands read in place.
#include <gtest/gtest.h>

#include <set>

#include "src/sql/expression.h"
#include "src/sql/parser.h"

namespace mtdb::sql {
namespace {

// Layout of the dummy table t (a INT, b DOUBLE, c VARCHAR).
RowLayout TableT() {
  TableSchema schema("t",
                     {{"a", ColumnType::kInt64, false},
                      {"b", ColumnType::kDouble, false},
                      {"c", ColumnType::kString, false}},
                     0);
  RowLayout layout;
  layout.Append("t", schema);
  return layout;
}

// Parses `expr_text` as the WHERE clause of a dummy statement, compiles it
// against table t and evaluates it against `row`.
Result<Value> Eval(const std::string& expr_text, const Row& row,
                   const std::vector<Value>& params = {}) {
  auto stmt = Parse("SELECT x FROM t WHERE " + expr_text);
  if (!stmt.ok()) return stmt.status();
  MTDB_ASSIGN_OR_RETURN(CompiledExpr compiled,
                        Compile(*stmt->select.where, TableT()));
  return Evaluator(params).Eval(compiled, row);
}

// Compiles `expr_text` against table t; only the status matters.
Status CompileStatus(const std::string& expr_text,
                     std::vector<CompiledAggregate>* aggregates = nullptr) {
  auto stmt = Parse("SELECT x FROM t WHERE " + expr_text);
  if (!stmt.ok()) return stmt.status();
  return Compile(*stmt->select.where, TableT(), aggregates).status();
}

Row R(int64_t a, double b, const std::string& c) {
  return {Value(a), Value(b), Value(c)};
}

Row RNull() { return {Value(), Value(), Value()}; }

TEST(ExpressionTest, ComparisonOperators) {
  Row row = R(5, 2.5, "m");
  EXPECT_EQ(Eval("a = 5", row)->AsInt(), 1);
  EXPECT_EQ(Eval("a <> 5", row)->AsInt(), 0);
  EXPECT_EQ(Eval("a < 6", row)->AsInt(), 1);
  EXPECT_EQ(Eval("a <= 5", row)->AsInt(), 1);
  EXPECT_EQ(Eval("a > 5", row)->AsInt(), 0);
  EXPECT_EQ(Eval("a >= 6", row)->AsInt(), 0);
  EXPECT_EQ(Eval("b = 2.5", row)->AsInt(), 1);
  EXPECT_EQ(Eval("c = 'm'", row)->AsInt(), 1);
  EXPECT_EQ(Eval("a = b", row)->AsInt(), 0);  // 5 vs 2.5, mixed numeric
}

TEST(ExpressionTest, NullPropagatesThroughComparison) {
  Row row = RNull();
  EXPECT_TRUE(Eval("a = 5", row)->is_null());
  EXPECT_TRUE(Eval("a < 5", row)->is_null());
  EXPECT_TRUE(Eval("a + 1 = 2", row)->is_null());
  // WHERE treats NULL as false.
  EXPECT_FALSE(Evaluator::IsTruthy(*Eval("a = 5", row)));
}

TEST(ExpressionTest, ThreeValuedAndOr) {
  Row row = RNull();
  // NULL AND FALSE = FALSE; NULL AND TRUE = NULL.
  EXPECT_EQ(Eval("a = 1 AND 1 = 2", row)->AsInt(), 0);
  EXPECT_TRUE(Eval("a = 1 AND 1 = 1", row)->is_null());
  // NULL OR TRUE = TRUE; NULL OR FALSE = NULL.
  EXPECT_EQ(Eval("a = 1 OR 1 = 1", row)->AsInt(), 1);
  EXPECT_TRUE(Eval("a = 1 OR 1 = 2", row)->is_null());
  // NOT NULL = NULL.
  EXPECT_TRUE(Eval("NOT (a = 1)", row)->is_null());
}

TEST(ExpressionTest, ShortCircuitPreventsNeedlessEvaluation) {
  // The right side references a bind parameter that is missing; with a
  // false left side under AND it must never be evaluated.
  Row row = R(1, 1.0, "x");
  auto result = Eval("1 = 2 AND a = ?", row, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->AsInt(), 0);
}

TEST(ExpressionTest, IsNullOperators) {
  EXPECT_EQ(Eval("a IS NULL", RNull())->AsInt(), 1);
  EXPECT_EQ(Eval("a IS NOT NULL", RNull())->AsInt(), 0);
  EXPECT_EQ(Eval("a IS NULL", R(1, 1, "x"))->AsInt(), 0);
  EXPECT_EQ(Eval("a IS NOT NULL", R(1, 1, "x"))->AsInt(), 1);
}

TEST(ExpressionTest, InListSemantics) {
  Row row = R(3, 1.0, "x");
  EXPECT_EQ(Eval("a IN (1, 2, 3)", row)->AsInt(), 1);
  EXPECT_EQ(Eval("a IN (1, 2)", row)->AsInt(), 0);
  EXPECT_EQ(Eval("a NOT IN (1, 2)", row)->AsInt(), 1);
  EXPECT_TRUE(Eval("a IN (1, 2)", RNull())->is_null());
}

TEST(ExpressionTest, BetweenDesugars) {
  EXPECT_EQ(Eval("a BETWEEN 1 AND 5", R(3, 0, ""))->AsInt(), 1);
  EXPECT_EQ(Eval("a BETWEEN 1 AND 5", R(5, 0, ""))->AsInt(), 1);  // inclusive
  EXPECT_EQ(Eval("a BETWEEN 1 AND 5", R(6, 0, ""))->AsInt(), 0);
  EXPECT_EQ(Eval("a NOT BETWEEN 1 AND 5", R(6, 0, ""))->AsInt(), 1);
}

TEST(ExpressionTest, LikePatterns) {
  EXPECT_TRUE(Evaluator::LikeMatch("hello", "hello"));
  EXPECT_TRUE(Evaluator::LikeMatch("hello", "h%"));
  EXPECT_TRUE(Evaluator::LikeMatch("hello", "%llo"));
  EXPECT_TRUE(Evaluator::LikeMatch("hello", "%ell%"));
  EXPECT_TRUE(Evaluator::LikeMatch("hello", "h_llo"));
  EXPECT_TRUE(Evaluator::LikeMatch("hello", "%"));
  EXPECT_TRUE(Evaluator::LikeMatch("", "%"));
  EXPECT_FALSE(Evaluator::LikeMatch("hello", "h_l"));
  EXPECT_FALSE(Evaluator::LikeMatch("hello", "ello"));
  EXPECT_FALSE(Evaluator::LikeMatch("", "_"));
  // Backtracking case: multiple % segments.
  EXPECT_TRUE(Evaluator::LikeMatch("abcabcabc", "%abc%abc"));
  EXPECT_FALSE(Evaluator::LikeMatch("abcabcab", "%abc%abc"));
}

TEST(ExpressionTest, ArithmeticTyping) {
  Row row = R(7, 2.0, "x");
  EXPECT_EQ(Eval("a + 1 = 8", row)->AsInt(), 1);
  // Int/int division yields double.
  auto stmt = Parse("SELECT x FROM t WHERE 7 / 2 = 3.5");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(Eval("7 / 2 = 3.5", row)->AsInt(), 1);
  EXPECT_EQ(Eval("7 % 2 = 1", row)->AsInt(), 1);
  EXPECT_EQ(Eval("a * b = 14", row)->AsInt(), 1);
  EXPECT_EQ(Eval("-a = -7", row)->AsInt(), 1);
  // Division by zero yields NULL, not an error.
  EXPECT_TRUE(Eval("a / 0 = 1", row)->is_null());
  EXPECT_TRUE(Eval("a % 0 = 1", row)->is_null());
}

TEST(ExpressionTest, ArithmeticOnStringsIsAnError) {
  EXPECT_FALSE(Eval("c + 1 = 2", R(1, 1.0, "x")).ok());
}

TEST(ExpressionTest, ParameterBinding) {
  Row row = R(9, 1.0, "x");
  EXPECT_EQ(Eval("a = ?", row, {Value(int64_t{9})})->AsInt(), 1);
  EXPECT_EQ(Eval("a = ? + ?", row,
                 {Value(int64_t{4}), Value(int64_t{5})})
                ->AsInt(),
            1);
  EXPECT_FALSE(Eval("a = ?", row, {}).ok());  // missing parameter
}

TEST(ExpressionTest, LayoutResolvesQualifiedAndAmbiguousNames) {
  TableSchema t1("t1", {{"id", ColumnType::kInt64, false}}, 0);
  TableSchema t2("t2", {{"id", ColumnType::kInt64, false}}, 0);
  RowLayout layout;
  layout.Append("t1", t1);
  layout.Append("t2", t2);
  EXPECT_EQ(*layout.Resolve("t1", "id"), 0);
  EXPECT_EQ(*layout.Resolve("t2", "id"), 1);
  EXPECT_FALSE(layout.Resolve("", "id").ok());    // ambiguous
  EXPECT_FALSE(layout.Resolve("t3", "id").ok());  // unknown qualifier
  EXPECT_FALSE(layout.Resolve("t1", "zz").ok());  // unknown column
}

TEST(ExpressionTest, CompileResolvesColumnsToSlots) {
  auto stmt = Parse("SELECT x FROM t WHERE c = 'm' AND a > ?");
  ASSERT_TRUE(stmt.ok());
  auto compiled = Compile(*stmt->select.where, TableT());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(compiled->op, OpCode::kAnd);
  const CompiledExpr& eq = compiled->children[0];
  EXPECT_EQ(eq.op, OpCode::kEq);
  EXPECT_EQ(eq.children[0].op, OpCode::kColumn);
  EXPECT_EQ(eq.children[0].slot, 2);  // c
  EXPECT_EQ(eq.children[1].op, OpCode::kLiteral);
  const CompiledExpr& gt = compiled->children[1];
  EXPECT_EQ(gt.op, OpCode::kGt);
  EXPECT_EQ(gt.children[1].op, OpCode::kParam);
  EXPECT_EQ(gt.children[1].slot, 0);
}

TEST(ExpressionTest, UnknownAndAmbiguousColumnsFailAtCompile) {
  // No row is ever evaluated: the errors come from compilation.
  Status unknown = CompileStatus("zz = 1");
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.message().find("unknown column zz"), std::string::npos);
  EXPECT_EQ(CompileStatus("t3.a = 1").code(), StatusCode::kInvalidArgument);

  TableSchema t1("t1", {{"id", ColumnType::kInt64, false}}, 0);
  TableSchema t2("t2", {{"id", ColumnType::kInt64, false}}, 0);
  RowLayout joined;
  joined.Append("t1", t1);
  joined.Append("t2", t2);
  auto stmt = Parse("SELECT x FROM t WHERE id = 1");
  ASSERT_TRUE(stmt.ok());
  Status ambiguous = Compile(*stmt->select.where, joined).status();
  EXPECT_EQ(ambiguous.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ambiguous.message().find("ambiguous"), std::string::npos);
  auto qualified = Parse("SELECT x FROM t WHERE t2.id = 1");
  ASSERT_TRUE(qualified.ok());
  auto compiled = Compile(*qualified->select.where, joined);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->children[0].slot, 1);
}

TEST(ExpressionTest, UnknownFunctionFailsAtCompile) {
  EXPECT_EQ(CompileStatus("FOO(a) = 1").code(), StatusCode::kInvalidArgument);
}

TEST(ExpressionTest, AggregateOutsideAnAggregatingQueryFailsAtCompile) {
  Status status = CompileStatus("SUM(a) > 1");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("outside an aggregating query"),
            std::string::npos);
  // Nor inside another aggregate's argument.
  std::vector<CompiledAggregate> aggregates;
  EXPECT_EQ(CompileStatus("SUM(COUNT(*)) > 1", &aggregates).code(),
            StatusCode::kInvalidArgument);
}

TEST(ExpressionTest, AggregateCallsShareSlotsAndEvaluateFromGroupValues) {
  auto stmt = Parse(
      "SELECT x FROM t WHERE SUM(a) > 1 AND COUNT(*) > 0 AND SUM(a) < 10");
  ASSERT_TRUE(stmt.ok());
  std::vector<CompiledAggregate> aggregates;
  auto compiled = Compile(*stmt->select.where, TableT(), &aggregates);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_EQ(aggregates.size(), 2u);  // SUM(a) twice, one slot
  EXPECT_EQ(aggregates[0].fn, AggregateFn::kSum);
  EXPECT_EQ(aggregates[0].arg.op, OpCode::kColumn);
  EXPECT_EQ(aggregates[1].fn, AggregateFn::kCountStar);

  std::vector<Value> params;
  std::vector<Value> group = {Value(int64_t{5}), Value(int64_t{3})};
  Row rep = R(0, 0, "");
  EXPECT_EQ(Evaluator(params, &group).Eval(*compiled, rep)->AsInt(), 1);
  group[0] = Value(int64_t{12});
  EXPECT_EQ(Evaluator(params, &group).Eval(*compiled, rep)->AsInt(), 0);
}

TEST(ExpressionTest, LikeOverColumnsAndNulls) {
  Row row = R(1, 1.0, "mystery");
  EXPECT_EQ(Eval("c LIKE 'my%'", row)->AsInt(), 1);
  EXPECT_EQ(Eval("c LIKE ?", row, {Value("%ter_")})->AsInt(), 1);
  EXPECT_EQ(Eval("c NOT LIKE '%z%'", row)->AsInt(), 1);
  EXPECT_TRUE(Eval("c LIKE 'x'", RNull())->is_null());
  EXPECT_FALSE(Eval("a LIKE 'x'", row).ok());  // non-string operand
}

TEST(ExpressionTest, OperandsAreReadInPlace) {
  auto stmt = Parse("SELECT x FROM t WHERE c");
  ASSERT_TRUE(stmt.ok());
  auto column = Compile(*stmt->select.where, TableT());
  ASSERT_TRUE(column.ok());
  auto param_stmt = Parse("SELECT x FROM t WHERE ?");
  ASSERT_TRUE(param_stmt.ok());
  auto param = Compile(*param_stmt->select.where, TableT());
  ASSERT_TRUE(param.ok());

  Row row = R(1, 1.0, "in place");
  std::vector<Value> params = {Value("bound")};
  Evaluator evaluator(params);
  Value scratch;
  Status status;
  EXPECT_EQ(evaluator.Ref(*column, row, &scratch, &status), &row[2]);
  EXPECT_EQ(evaluator.Ref(*param, row, &scratch, &status), &params[0]);
  EXPECT_TRUE(status.ok());
}

TEST(ExpressionTest, FingerprintDistinguishesAggregates) {
  auto stmt = Parse("SELECT SUM(a), SUM(b), COUNT(*), COUNT(a) FROM t");
  ASSERT_TRUE(stmt.ok());
  std::set<std::string> prints;
  for (const auto& item : stmt->select.items) {
    prints.insert(item.expr->Fingerprint());
  }
  EXPECT_EQ(prints.size(), 4u);
}

}  // namespace
}  // namespace mtdb::sql
