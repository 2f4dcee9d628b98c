#ifndef MTDB_SQL_EXECUTOR_H_
#define MTDB_SQL_EXECUTOR_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/sql/ast.h"
#include "src/sql/expression.h"
#include "src/sql/planner.h"
#include "src/sql/query_result.h"
#include "src/storage/engine.h"

namespace mtdb::sql {

// Executes physical plans against an Engine within a caller-managed
// transaction. Planning, including the compilation of every expression,
// lives in Planner (src/sql/planner.h); this class only walks plans:
//  * ScanNode access paths: PK point lookup, PK range scan, secondary
//    index lookup, full scan;
//  * left-deep nested-loop joins, probing the inner side by PK or
//    secondary index when the plan says so;
//  * grouping/aggregation, HAVING, ORDER BY, LIMIT.
//
// Every SELECT runs one pipeline: WHERE and grouping run on each scanned
// row as the engine's scan visitor hands it over (in place, under the
// table latch), a LIMIT without ORDER BY stops the scan, and only the rows
// or groups that survive are copied. The visitor never calls the engine;
// a join therefore copies its driver's surviving rows out of the scan
// before it probes.
//
// Locking is delegated to the engine: point reads take row S locks, scans
// take table S locks, point writes take row X locks, and non-PK-predicate
// UPDATE/DELETE escalate to a table X lock.
class SqlExecutor {
 public:
  explicit SqlExecutor(Engine* engine) : engine_(engine) {}

  // Plans (borrowing `stmt`) and executes in one step.
  Result<QueryResult> Execute(uint64_t txn_id, const std::string& db_name,
                              const Statement& stmt,
                              const std::vector<Value>& params = {});

  // Parses, plans (through the engine's plan cache) and executes in one
  // step.
  Result<QueryResult> ExecuteSql(uint64_t txn_id, const std::string& db_name,
                                 const std::string& sql,
                                 const std::vector<Value>& params = {});

  // Walks an already-planned statement. EXPLAIN plans return their operator
  // tree as a one-column relation instead of executing.
  Result<QueryResult> ExecutePlan(uint64_t txn_id, const std::string& db_name,
                                  const PlannedStatement& plan,
                                  const std::vector<Value>& params = {});

 private:
  Result<QueryResult> ExecSelect(uint64_t txn_id, const std::string& db_name,
                                 const SelectPlan& plan,
                                 const std::vector<Value>& params);
  Result<QueryResult> ExecInsert(uint64_t txn_id, const std::string& db_name,
                                 const PlannedStatement& plan,
                                 const std::vector<Value>& params);
  Result<QueryResult> ExecMutate(uint64_t txn_id, const std::string& db_name,
                                 const MutatePlan& plan, bool is_update,
                                 const std::vector<Value>& params);
  Result<QueryResult> ExecDdl(const std::string& db_name,
                              const Statement& stmt);

  // Hands `visit` the full table rows along the access path, until it
  // returns false: stored rows in place for range and full scans (under the
  // table latch, see Engine::Scan), the row a read returned for point and
  // index probes.
  Status ScanRows(uint64_t txn_id, const std::string& db_name,
                  const ScanNode& scan, const std::vector<Value>& params,
                  const Engine::RowVisitor& visit);

  Engine* engine_;
};

}  // namespace mtdb::sql

#endif  // MTDB_SQL_EXECUTOR_H_
