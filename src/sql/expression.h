#ifndef MTDB_SQL_EXPRESSION_H_
#define MTDB_SQL_EXPRESSION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/sql/ast.h"
#include "src/storage/schema.h"

namespace mtdb::sql {

// Describes the shape of the rows an expression is compiled against: the
// concatenated columns of all tables in scope, each tagged with its source
// qualifier (table alias). Used only while planning: compiled expressions
// carry the slots it resolves.
class RowLayout {
 public:
  void Append(const std::string& qualifier, const TableSchema& schema);

  // Resolves `qualifier.name` (qualifier may be empty) to a slot index.
  // Errors on unknown or ambiguous columns.
  Result<int> Resolve(const std::string& qualifier,
                      const std::string& name) const;

  size_t size() const { return names_.size(); }
  const std::string& name_at(size_t i) const { return names_[i]; }
  const std::string& qualifier_at(size_t i) const { return qualifiers_[i]; }

 private:
  std::vector<std::string> qualifiers_;
  std::vector<std::string> names_;
};

// The operation of one compiled expression node.
enum class OpCode : uint8_t {
  kColumn,     // row[slot]
  kParam,      // params[slot]
  kLiteral,    // source->literal
  kAggregate,  // the current group's value of aggregate slot `slot`
  kNot,
  kNegate,
  kAnd,
  kOr,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kLike,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kInList,  // children[0] [NOT] IN (children[1..]); source->negated
  kIsNull,  // children[0] IS [NOT] NULL; source->negated
};

// An expression compiled against a RowLayout: column names resolved to row
// slots, `?` to parameter indexes, aggregate calls to aggregate slots and
// operator text to op codes. A node points at the AST node it was compiled
// from (`source`: literal values, NOT flags, EXPLAIN text), so that AST must
// outlive it; a PlannedStatement shares or borrows it for exactly that.
struct CompiledExpr {
  OpCode op = OpCode::kLiteral;
  int slot = -1;
  const Expr* source = nullptr;
  std::vector<CompiledExpr> children;
};

enum class AggregateFn : uint8_t { kCountStar, kCount, kSum, kAvg, kMin, kMax };

// One aggregate slot of an aggregating query.
struct CompiledAggregate {
  AggregateFn fn = AggregateFn::kCountStar;
  const Expr* source = nullptr;  // the first call compiled into this slot
  CompiledExpr arg;              // unused for COUNT(*)
};

// Compiles `expr` against `layout`. Unknown or ambiguous columns, unknown
// functions and misplaced aggregates fail here, once, instead of per row.
// With `aggregates`, each aggregate call compiles to a slot of *aggregates,
// identical calls (equal Fingerprint) sharing one; without, an aggregate
// call is an error.
Result<CompiledExpr> Compile(const Expr& expr, const RowLayout& layout,
                             std::vector<CompiledAggregate>* aggregates =
                                 nullptr);

// Evaluates compiled expressions against a row. Operands (columns of the
// row, bound parameters, literals and a group's aggregate values) are read
// in place; only computed intermediate values are materialized. NULL
// semantics: any comparison or arithmetic involving NULL yields NULL; WHERE
// treats NULL as false (IsTruthy).
class Evaluator {
 public:
  // `aggregates`: the current group's value per aggregate slot; required
  // only by expressions compiled with aggregate slots.
  explicit Evaluator(const std::vector<Value>& params,
                     const std::vector<Value>* aggregates = nullptr)
      : params_(&params), aggregates_(aggregates) {}

  Result<Value> Eval(const CompiledExpr& expr, const Row& row) const;

  // WHERE / ON / HAVING: true iff `expr` is non-NULL and truthy over `row`.
  Result<bool> Test(const CompiledExpr& expr, const Row& row) const;

  // Evaluates `expr` and returns the address of its value: in `row`, the
  // parameters, the AST or the aggregates when `expr` is an operand, else
  // `scratch`. Returns null with *status set on error.
  const Value* Ref(const CompiledExpr& expr, const Row& row, Value* scratch,
                   Status* status) const;

  // SQL LIKE with % (any run) and _ (single char).
  static bool LikeMatch(std::string_view text, std::string_view pattern);

  // WHERE-clause truthiness: non-null and numerically non-zero.
  static bool IsTruthy(const Value& v);

 private:
  const Value* Binary(const CompiledExpr& expr, const Row& row, Value* scratch,
                      Status* status) const;

  const std::vector<Value>* params_;
  const std::vector<Value>* aggregates_;
};

}  // namespace mtdb::sql

#endif  // MTDB_SQL_EXPRESSION_H_
