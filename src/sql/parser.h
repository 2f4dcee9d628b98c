#ifndef MTDB_SQL_PARSER_H_
#define MTDB_SQL_PARSER_H_

#include <string>

#include "src/common/result.h"
#include "src/sql/ast.h"

namespace mtdb::sql {

// Parses one SQL statement (optionally terminated by ';'). Supported grammar:
//
//   SELECT [DISTINCT is not supported] select_list
//     FROM table [alias] {, table [alias]}
//     {[INNER] JOIN table [alias] ON expr}
//     [WHERE expr] [GROUP BY expr {, expr}] [HAVING expr]
//     [ORDER BY expr [ASC|DESC] {, ...}] [LIMIT n]
//   INSERT INTO table [(col, ...)] VALUES (expr, ...) {, (expr, ...)}
//   UPDATE table SET col = expr {, col = expr} [WHERE expr]
//   DELETE FROM table [WHERE expr]
//   CREATE TABLE table (col TYPE [PRIMARY KEY] [NOT NULL], ...
//                       [, PRIMARY KEY (col)])
//   CREATE INDEX name ON table (col)
//   DROP TABLE table
//   EXPLAIN stmt            (any of the above; returns the physical plan)
//
// Expressions: OR / AND / NOT, comparisons (= <> < <= > >=, LIKE, IN (...),
// IS [NOT] NULL, BETWEEN a AND b), + - * / %, unary -, literals, ?, column
// refs, aggregate functions COUNT/SUM/AVG/MIN/MAX.
//
// Every call parses afresh and counts in mtdb_sql_parse_total. Paths that see
// the same text again and again (engine plan-cache misses, the controller's
// routing and prepared registrations) parse through sql::StatementCache,
// which keeps one shared AST per '?' text.
Result<Statement> Parse(const std::string& sql);

}  // namespace mtdb::sql

#endif  // MTDB_SQL_PARSER_H_
