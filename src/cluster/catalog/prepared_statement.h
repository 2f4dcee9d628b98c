#ifndef MTDB_CLUSTER_CATALOG_PREPARED_STATEMENT_H_
#define MTDB_CLUSTER_CATALOG_PREPARED_STATEMENT_H_

#include <string>
#include <utility>

namespace mtdb {

class ClusterController;
class Connection;

// A cluster-level prepared statement: one SQL text plus the routing facts the
// controller derived from it (read vs. write, which table a write touches),
// so executing it skips the routing parse of Connection::Execute. The
// machines see exactly what Connection::Execute sends — SQL text plus
// parameters — and serve the parse + plan from their engine plan cache; DDL
// bumps the engine's schema version and the next execution re-plans
// transparently. No machine holds any state for a prepared statement, so
// nothing needs re-preparing when a machine fails, is recovered, or receives
// a migrated tenant.
//
// Instances are immutable and shared (one per distinct (database, sql) pair,
// handed out as shared_ptr by ClusterController::PrepareStatement). The
// registry entry lives in the tenant catalog's evictable resident state:
// evicting an idle tenant drops the registration, but outstanding shared_ptr
// holders keep executing through their instance unaffected — the next
// Prepare of the same text simply makes a fresh registration, from the parse
// the controller shares across tenants (sql::StatementCache), so a
// re-registration does not parse again.
class PreparedStatement {
 public:
  const std::string& database() const { return db_name_; }
  const std::string& sql() const { return sql_; }
  bool is_read() const { return is_read_; }

  PreparedStatement(const PreparedStatement&) = delete;
  PreparedStatement& operator=(const PreparedStatement&) = delete;

 private:
  friend class ClusterController;
  friend class Connection;

  PreparedStatement(std::string db_name, std::string sql, bool is_read,
                    std::string write_table)
      : db_name_(std::move(db_name)), sql_(std::move(sql)), is_read_(is_read),
        write_table_(std::move(write_table)) {}

  std::string db_name_;
  std::string sql_;
  bool is_read_;
  std::string write_table_;  // empty for reads
};

}  // namespace mtdb

#endif  // MTDB_CLUSTER_CATALOG_PREPARED_STATEMENT_H_
