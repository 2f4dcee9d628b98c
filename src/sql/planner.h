#ifndef MTDB_SQL_PLANNER_H_
#define MTDB_SQL_PLANNER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/sql/ast.h"
#include "src/sql/expression.h"

namespace mtdb {
class Engine;
}  // namespace mtdb

namespace mtdb::sql {

// ---- Physical plan nodes ----
//
// A plan is derived once from an AST plus a schema snapshot and can then be
// executed many times with different `?` parameters. Every expression is
// compiled at plan time (sql/expression.h): names resolved to row slots,
// operators to op codes, aggregate calls to aggregate slots. Compiled nodes
// point into the statement AST (shared by or outliving the
// PlannedStatement); everything else schema-derived (names, column indexes,
// row widths) is copied, so a cached plan never dangles after DDL;
// staleness is handled by the engine's schema-version check, and a dropped
// table surfaces as kNotFound from the row operations at execution time.

// How one table's rows are fetched.
enum class AccessPathKind {
  kPkPoint,     // PK = const: single Read
  kIndexProbe,  // indexed col = const: IndexLookup + Read per pk
  kPkRange,     // PK range: Engine::Scan with inclusive bounds
  kFullScan,    // Engine::Scan without bounds
};

struct ScanNode {
  std::string alias;
  std::string table;
  AccessPathKind path = AccessPathKind::kFullScan;
  CompiledExpr key;               // kPkPoint / kIndexProbe: constant side
  std::string index_column;       // kIndexProbe: indexed column name
  // kPkRange: all usable bound expressions; the executor evaluates each and
  // keeps the tightest (inclusive — strict comparisons are re-applied by the
  // residual WHERE filter).
  std::vector<CompiledExpr> lo;
  std::vector<CompiledExpr> hi;
};

// How the inner side of one nested-loop join is matched per outer row.
enum class JoinStrategy {
  kPkProbe,     // inner.pk = f(outer): Read per outer row
  kIndexProbe,  // inner.indexed = f(outer): IndexLookup per outer row
  kScan,        // no usable equi-condition: scan inner once, cross product
};

struct JoinNode {
  std::string alias;
  std::string table;
  JoinStrategy strategy = JoinStrategy::kScan;
  CompiledExpr probe_key;     // over the outer row (probe strategies)
  std::string probe_column;   // kIndexProbe: indexed column name
  // Full ON clause over the joined row, re-checked after joining.
  std::optional<CompiledExpr> residual;
};

struct OutputColumn {
  CompiledExpr expr;  // a star expansion is a plain column
  std::string name;
};

struct OrderKey {
  // alias_slot >= 0: sort on that projected output column, and `expr` only
  // names the key (its source, for EXPLAIN); else evaluate `expr`.
  CompiledExpr expr;
  bool descending = false;
  int alias_slot = -1;
};

// One SELECT runs as one pipeline (executor.h): the driver's rows stream
// through WHERE and grouping as they are scanned; joins, ORDER BY and the
// projection see only the rows (or groups) that survive.
struct SelectPlan {
  ScanNode driver;              // first FROM entry, access path from WHERE
  std::vector<JoinNode> joins;  // remaining sources, left-deep
  size_t width = 0;             // columns of the final joined row
  std::optional<CompiledExpr> where;  // residual filter over the joined row
  std::vector<OutputColumn> outputs;
  bool aggregating = false;
  // Aggregating queries: one slot per distinct aggregate call.
  std::vector<CompiledAggregate> aggregates;
  std::vector<CompiledExpr> group_by;
  std::optional<CompiledExpr> having;
  std::vector<OrderKey> order_by;
  int64_t limit = -1;
};

struct InsertPlan {
  std::string table;
  std::vector<int> column_map;  // value position -> schema column index
  size_t row_width = 0;         // schema.num_columns()
  std::vector<std::vector<CompiledExpr>> rows;  // VALUES, row-independent
};

// UPDATE / DELETE share a shape: pick rows, filter, mutate by PK.
struct MutatePlan {
  std::string table;
  ScanNode scan;
  // False => the statement cannot be proven to touch a single PK point, so
  // the executor escalates to a table X lock before fetching.
  bool pk_point = false;
  int pk = -1;
  std::optional<CompiledExpr> where;
  // Resolved SET targets (UPDATE only): schema column index + value.
  std::vector<std::pair<int, CompiledExpr>> assignments;
};

// A planned statement: the physical plan plus the AST it points into. When
// produced by Planner::Plan the plan shares the immutable AST
// (`shared_stmt`) with the parse cache and with every other database's plan
// of the same text, so it stays valid after the parse cache evicts the text;
// when produced by PlanBorrowed it borrows the caller's AST, which must
// outlive execution. Immutable after planning — safe to execute from many
// threads at once via shared_ptr<const PlannedStatement> (the engine plan
// cache does exactly that).
struct PlannedStatement {
  std::shared_ptr<const Statement> shared_stmt;  // null when borrowed
  const Statement* stmt = nullptr;  // always valid; == shared_stmt when shared

  StatementKind kind = StatementKind::kSelect;
  bool explain = false;
  SelectPlan select;
  InsertPlan insert;
  MutatePlan update;
  MutatePlan del;

  // One line per operator, two-space indented under the statement head; the
  // text EXPLAIN returns.
  std::string Explain() const;
};

// Turns an AST plus the engine's current catalog into a physical plan.
// Resolution errors (unknown database/table/column, missing FROM) surface
// here with the same status codes and messages the monolithic executor used
// to produce at execution time.
class Planner {
 public:
  explicit Planner(Engine* engine) : engine_(engine) {}

  // Shares the AST (`stmt` must not be null); the result is
  // self-contained and cacheable.
  Result<std::shared_ptr<const PlannedStatement>> Plan(
      const std::string& db_name, std::shared_ptr<const Statement> stmt);

  // Borrows the caller's AST (which must outlive the returned plan) — the
  // one-shot path used when a statement is executed directly from an AST.
  Result<std::unique_ptr<const PlannedStatement>> PlanBorrowed(
      const std::string& db_name, const Statement& stmt);

 private:
  Status PlanInto(const std::string& db_name, const Statement& stmt,
                  PlannedStatement* plan);

  Engine* engine_;
};

// Debug rendering of an expression tree (used by EXPLAIN).
std::string ExprToString(const Expr& expr);

}  // namespace mtdb::sql

#endif  // MTDB_SQL_PLANNER_H_
