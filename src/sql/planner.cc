#include "src/sql/planner.h"

#include <string_view>
#include <utility>

#include "src/obs/metrics.h"
#include "src/storage/engine.h"

namespace mtdb::sql {

namespace {

// Flattens an AND tree into conjuncts.
void SplitConjuncts(const Expr* expr, std::vector<const Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kBinary && expr->op == "AND") {
    SplitConjuncts(expr->children[0].get(), out);
    SplitConjuncts(expr->children[1].get(), out);
    return;
  }
  out->push_back(expr);
}

// True if the expression references no columns at all (literals, params,
// arithmetic over them) — i.e. it can be evaluated before any row is read.
bool IsRowIndependent(const Expr& expr) {
  if (expr.kind == ExprKind::kColumnRef) return false;
  if (expr.kind == ExprKind::kFunction) return false;
  for (const ExprPtr& child : expr.children) {
    if (child && !IsRowIndependent(*child)) return false;
  }
  return true;
}

// True if every column reference in `expr` resolves in `layout`.
bool ResolvesInLayout(const Expr& expr, const RowLayout& layout) {
  if (expr.kind == ExprKind::kColumnRef) {
    return layout.Resolve(expr.table, expr.column).ok();
  }
  for (const ExprPtr& child : expr.children) {
    if (child && !ResolvesInLayout(*child, layout)) return false;
  }
  return true;
}

// Default output column name for a select expression.
std::string DeriveAlias(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kColumnRef:
      return expr.column;
    case ExprKind::kFunction:
      return expr.function + (expr.star ? "(*)" : "(...)");
    default:
      return "expr";
  }
}

// Collects aggregate function nodes in an expression tree.
void CollectAggregates(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == ExprKind::kFunction && IsAggregateFunction(expr.function)) {
    out->push_back(&expr);
    return;  // nested aggregates not supported
  }
  for (const ExprPtr& child : expr.children) {
    if (child) CollectAggregates(*child, out);
  }
}

// One table in scope during planning.
struct Source {
  std::string alias;
  std::string table_name;
  const TableSchema* schema;
  const Expr* on = nullptr;  // join condition (null for FROM list entries)
};

// Chooses the best access path the predicate conjuncts allow. Selection is
// purely structural (which column, which operator, row-independent other
// side) — constants are compiled here and evaluated at execution time.
Status PlanAccessPath(const TableSchema& schema, const Source& source,
                      const std::vector<const Expr*>& conjuncts,
                      ScanNode* scan) {
  scan->alias = source.alias;
  scan->table = source.table_name;
  scan->path = AccessPathKind::kFullScan;
  int pk = schema.primary_key_index();

  auto column_of_source = [&](const Expr& e) -> int {
    if (e.kind != ExprKind::kColumnRef) return -1;
    if (!e.table.empty() && e.table != source.alias) return -1;
    return schema.ColumnIndex(e.column);
  };

  const Expr* point_key = nullptr;
  const Expr* index_key = nullptr;
  std::string index_column;
  std::vector<const Expr*> lo, hi;
  for (const Expr* conjunct : conjuncts) {
    if (conjunct->kind != ExprKind::kBinary) continue;
    const std::string& op = conjunct->op;
    if (op != "=" && op != "<" && op != "<=" && op != ">" && op != ">=") {
      continue;
    }
    const Expr* lhs = conjunct->children[0].get();
    const Expr* rhs = conjunct->children[1].get();
    int column = column_of_source(*lhs);
    const Expr* const_side = rhs;
    // A view, not a copy: GCC 12 at -O3 misreads the short string
    // assignments below as overlapping copies (-Wrestrict).
    std::string_view effective_op = op;
    if (column < 0) {
      column = column_of_source(*rhs);
      const_side = lhs;
      // Flip the comparison when the column is on the right.
      if (op == "<") effective_op = ">";
      else if (op == "<=") effective_op = ">=";
      else if (op == ">") effective_op = "<";
      else if (op == ">=") effective_op = "<=";
    }
    if (column < 0 || !IsRowIndependent(*const_side)) continue;
    if (effective_op == "=") {
      if (column == pk) {
        point_key = const_side;
        break;  // best possible path
      }
      if (index_key == nullptr && schema.IndexOnColumn(column) != nullptr) {
        index_key = const_side;
        index_column = schema.columns()[column].name;
      }
    } else if (column == pk) {
      // Inclusive bounds; strict comparisons are tightened by the residual
      // WHERE filter applied later.
      if (effective_op == ">" || effective_op == ">=") {
        lo.push_back(const_side);
      } else {
        hi.push_back(const_side);
      }
    }
  }

  // Row-independent: compiled against no columns at all.
  const RowLayout no_columns;
  if (point_key != nullptr) {
    scan->path = AccessPathKind::kPkPoint;
    MTDB_ASSIGN_OR_RETURN(scan->key, Compile(*point_key, no_columns));
  } else if (index_key != nullptr) {
    scan->path = AccessPathKind::kIndexProbe;
    MTDB_ASSIGN_OR_RETURN(scan->key, Compile(*index_key, no_columns));
    scan->index_column = std::move(index_column);
  } else if (!lo.empty() || !hi.empty()) {
    scan->path = AccessPathKind::kPkRange;
    for (const Expr* bound : lo) {
      MTDB_ASSIGN_OR_RETURN(CompiledExpr compiled, Compile(*bound, no_columns));
      scan->lo.push_back(std::move(compiled));
    }
    for (const Expr* bound : hi) {
      MTDB_ASSIGN_OR_RETURN(CompiledExpr compiled, Compile(*bound, no_columns));
      scan->hi.push_back(std::move(compiled));
    }
  }
  return Status::OK();
}

// A star expansion's output: the joined row's column `slot`.
CompiledExpr ColumnAt(size_t slot) {
  CompiledExpr column;
  column.op = OpCode::kColumn;
  column.slot = static_cast<int>(slot);
  return column;
}

Status PlanSelect(Database* db, const SelectStatement& select,
                  SelectPlan* plan) {
  if (select.from.empty()) {
    return Status::InvalidArgument("SELECT requires a FROM clause");
  }

  // Resolve sources: FROM entries (cross) then JOIN entries (with ON).
  std::vector<Source> sources;
  for (const TableRef& ref : select.from) {
    Table* table = db->GetTable(ref.table);
    if (table == nullptr) return Status::NotFound("table " + ref.table);
    sources.push_back(
        Source{ref.EffectiveName(), ref.table, &table->schema(), nullptr});
  }
  for (const JoinClause& join : select.joins) {
    Table* table = db->GetTable(join.table.table);
    if (table == nullptr) {
      return Status::NotFound("table " + join.table.table);
    }
    sources.push_back(Source{join.table.EffectiveName(), join.table.table,
                             &table->schema(), join.on.get()});
  }

  std::vector<const Expr*> where_conjuncts;
  SplitConjuncts(select.where.get(), &where_conjuncts);

  // Seed with the first source, choosing its access path from WHERE.
  RowLayout layout;
  layout.Append(sources[0].alias, *sources[0].schema);
  MTDB_RETURN_IF_ERROR(PlanAccessPath(*sources[0].schema, sources[0],
                                      where_conjuncts, &plan->driver));

  // Fold in each remaining source with a nested-loop (index-assisted when
  // possible) join. `layout` is the outer side until the inner is appended.
  for (size_t s = 1; s < sources.size(); ++s) {
    const Source& source = sources[s];
    JoinNode node;
    node.alias = source.alias;
    node.table = source.table_name;

    std::vector<const Expr*> on_conjuncts;
    SplitConjuncts(source.on, &on_conjuncts);

    // Look for inner.col = f(outer) to drive an index/PK lookup per outer
    // row.
    const TableSchema& schema = *source.schema;
    int pk = schema.primary_key_index();
    int probe_column = -1;
    const Expr* probe_expr = nullptr;
    for (const Expr* conjunct : on_conjuncts) {
      if (conjunct->kind != ExprKind::kBinary || conjunct->op != "=") continue;
      for (int side = 0; side < 2; ++side) {
        const Expr* col_side = conjunct->children[side].get();
        const Expr* other = conjunct->children[1 - side].get();
        if (col_side->kind != ExprKind::kColumnRef) continue;
        if (!col_side->table.empty() && col_side->table != source.alias) {
          continue;
        }
        int column = schema.ColumnIndex(col_side->column);
        if (column < 0) continue;
        // Qualified-name collision guard: an unqualified column that also
        // resolves in the outer layout is ambiguous; skip the fast path.
        if (col_side->table.empty() &&
            layout.Resolve("", col_side->column).ok()) {
          continue;
        }
        if (!ResolvesInLayout(*other, layout)) continue;
        if (column == pk || schema.IndexOnColumn(column) != nullptr) {
          // Prefer PK probes over secondary-index probes.
          if (probe_column < 0 || column == pk) {
            probe_column = column;
            probe_expr = other;
            if (column == pk) break;
          }
        }
      }
      if (probe_column == pk && probe_expr != nullptr) break;
    }

    if (probe_expr != nullptr) {
      node.strategy = probe_column == pk ? JoinStrategy::kPkProbe
                                         : JoinStrategy::kIndexProbe;
      MTDB_ASSIGN_OR_RETURN(node.probe_key, Compile(*probe_expr, layout));
      if (node.strategy == JoinStrategy::kIndexProbe) {
        node.probe_column = schema.columns()[probe_column].name;
      }
    }
    layout.Append(source.alias, *source.schema);
    if (source.on != nullptr) {
      MTDB_ASSIGN_OR_RETURN(node.residual, Compile(*source.on, layout));
    }
    plan->joins.push_back(std::move(node));
  }

  plan->width = layout.size();
  if (select.where != nullptr) {
    MTDB_ASSIGN_OR_RETURN(plan->where, Compile(*select.where, layout));
  }

  bool any_aggregate = false;
  for (const SelectItem& item : select.items) {
    if (!item.star && item.expr->ContainsAggregate()) any_aggregate = true;
  }
  plan->aggregating = any_aggregate || !select.group_by.empty() ||
                      (select.having != nullptr);
  // Aggregate calls compile to slots only where an aggregating query can
  // evaluate them: the projection, HAVING and ORDER BY.
  std::vector<CompiledAggregate>* aggregates =
      plan->aggregating ? &plan->aggregates : nullptr;

  // Expand the projection list (stars) and name output columns.
  for (const SelectItem& item : select.items) {
    if (item.star) {
      for (size_t i = 0; i < layout.size(); ++i) {
        if (!item.star_table.empty() &&
            layout.qualifier_at(i) != item.star_table) {
          continue;
        }
        plan->outputs.push_back(OutputColumn{ColumnAt(i), layout.name_at(i)});
      }
      continue;
    }
    MTDB_ASSIGN_OR_RETURN(CompiledExpr compiled,
                          Compile(*item.expr, layout, aggregates));
    plan->outputs.push_back(OutputColumn{
        std::move(compiled),
        item.alias.empty() ? DeriveAlias(*item.expr) : item.alias});
  }

  for (const ExprPtr& key : select.group_by) {
    MTDB_ASSIGN_OR_RETURN(CompiledExpr compiled, Compile(*key, layout));
    plan->group_by.push_back(std::move(compiled));
  }
  if (select.having != nullptr) {
    MTDB_ASSIGN_OR_RETURN(plan->having,
                          Compile(*select.having, layout, aggregates));
  }

  for (const OrderByItem& item : select.order_by) {
    OrderKey key;
    key.descending = item.descending;
    // Alias reference into the projected row?
    if (item.expr->kind == ExprKind::kColumnRef && item.expr->table.empty()) {
      for (size_t c = 0; c < plan->outputs.size(); ++c) {
        if (plan->outputs[c].name == item.expr->column) {
          key.alias_slot = static_cast<int>(c);
          break;
        }
      }
    }
    if (key.alias_slot >= 0) {
      key.expr.source = item.expr.get();
    } else {
      MTDB_ASSIGN_OR_RETURN(key.expr,
                            Compile(*item.expr, layout, aggregates));
    }
    plan->order_by.push_back(std::move(key));
  }
  plan->limit = select.limit;
  return Status::OK();
}

Status PlanInsert(Database* db, const InsertStatement& insert,
                  InsertPlan* plan) {
  Table* table = db->GetTable(insert.table);
  if (table == nullptr) return Status::NotFound("table " + insert.table);
  const TableSchema& schema = table->schema();

  plan->table = insert.table;
  plan->row_width = schema.num_columns();
  // Map of value position -> schema column index.
  if (insert.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      plan->column_map.push_back(static_cast<int>(i));
    }
  } else {
    for (const std::string& name : insert.columns) {
      int index = schema.ColumnIndex(name);
      if (index < 0) return Status::InvalidArgument("unknown column " + name);
      plan->column_map.push_back(index);
    }
  }
  const RowLayout no_columns;
  for (const std::vector<ExprPtr>& value_exprs : insert.rows) {
    if (value_exprs.size() != plan->column_map.size()) {
      return Status::InvalidArgument("VALUES arity mismatch");
    }
    std::vector<CompiledExpr> values;
    values.reserve(value_exprs.size());
    for (const ExprPtr& value : value_exprs) {
      MTDB_ASSIGN_OR_RETURN(CompiledExpr compiled, Compile(*value, no_columns));
      values.push_back(std::move(compiled));
    }
    plan->rows.push_back(std::move(values));
  }
  return Status::OK();
}

Status PlanMutate(
    Database* db, const std::string& table_name, const Expr* where,
    const std::vector<std::pair<std::string, ExprPtr>>* set_assignments,
    MutatePlan* plan) {
  Table* table = db->GetTable(table_name);
  if (table == nullptr) return Status::NotFound("table " + table_name);
  const TableSchema& schema = table->schema();

  plan->table = table_name;
  plan->pk = schema.primary_key_index();
  RowLayout layout;
  layout.Append(table_name, schema);
  if (where != nullptr) {
    MTDB_ASSIGN_OR_RETURN(plan->where, Compile(*where, layout));
  }

  // Resolve assignment targets once (UPDATE only).
  if (set_assignments != nullptr) {
    for (const auto& [column, expr] : *set_assignments) {
      int index = schema.ColumnIndex(column);
      if (index < 0) return Status::InvalidArgument("unknown column " + column);
      MTDB_ASSIGN_OR_RETURN(CompiledExpr value, Compile(*expr, layout));
      plan->assignments.emplace_back(index, std::move(value));
    }
  }

  std::vector<const Expr*> conjuncts;
  SplitConjuncts(where, &conjuncts);

  // Detect the PK point path; anything else escalates to a table X lock
  // before scanning (the executor's simple, correct protocol for predicate
  // writes — see DESIGN.md).
  for (const Expr* conjunct : conjuncts) {
    if (conjunct->kind == ExprKind::kBinary && conjunct->op == "=") {
      for (int side = 0; side < 2; ++side) {
        const Expr* col = conjunct->children[side].get();
        const Expr* other = conjunct->children[1 - side].get();
        if (col->kind == ExprKind::kColumnRef &&
            schema.ColumnIndex(col->column) == plan->pk &&
            IsRowIndependent(*other)) {
          plan->pk_point = true;
        }
      }
    }
  }

  Source source{table_name, table_name, &schema, nullptr};
  return PlanAccessPath(schema, source, conjuncts, &plan->scan);
}

std::string PathLabel(const ScanNode& scan) {
  switch (scan.path) {
    case AccessPathKind::kPkPoint:
      return "pk-point";
    case AccessPathKind::kIndexProbe:
      return "index-probe(" + scan.index_column + ")";
    case AccessPathKind::kPkRange:
      return "pk-range";
    case AccessPathKind::kFullScan:
      return "full-scan";
  }
  return "?";
}

std::string ScanLine(const ScanNode& scan) {
  std::string line = "scan " + scan.table;
  if (scan.alias != scan.table) line += " as " + scan.alias;
  line += " [" + PathLabel(scan) + "]";
  return line;
}

std::string JoinLine(const JoinNode& join) {
  std::string line = "join " + join.table;
  if (join.alias != join.table) line += " as " + join.alias;
  switch (join.strategy) {
    case JoinStrategy::kPkProbe:
      line += " [pk-probe]";
      break;
    case JoinStrategy::kIndexProbe:
      line += " [index-probe(" + join.probe_column + ")]";
      break;
    case JoinStrategy::kScan:
      line += " [nested-loop-scan]";
      break;
  }
  return line;
}

std::string JoinExprs(const std::vector<const Expr*>& exprs) {
  std::string out;
  for (const Expr* e : exprs) {
    if (!out.empty()) out += ", ";
    out += ExprToString(*e);
  }
  return out;
}

std::string JoinExprs(const std::vector<CompiledExpr>& exprs) {
  std::vector<const Expr*> sources;
  for (const CompiledExpr& e : exprs) sources.push_back(e.source);
  return JoinExprs(sources);
}

}  // namespace

std::string ExprToString(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal.ToString();
    case ExprKind::kColumnRef:
      return expr.table.empty() ? expr.column : expr.table + "." + expr.column;
    case ExprKind::kParam:
      return "?";
    case ExprKind::kUnary:
      return expr.op + "(" + ExprToString(*expr.children[0]) + ")";
    case ExprKind::kBinary:
      // Appends, not "(" + ...: GCC 12 at -O3 reports a false -Wrestrict
      // on a literal-first concatenation.
      return std::string("(")
          .append(ExprToString(*expr.children[0]))
          .append(" ")
          .append(expr.op)
          .append(" ")
          .append(ExprToString(*expr.children[1]))
          .append(")");
    case ExprKind::kFunction: {
      if (expr.star) return expr.function + "(*)";
      std::string args;
      for (const ExprPtr& child : expr.children) {
        if (!args.empty()) args += ", ";
        args += ExprToString(*child);
      }
      return expr.function + "(" + args + ")";
    }
    case ExprKind::kInList: {
      std::string list;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        if (!list.empty()) list += ", ";
        list += ExprToString(*expr.children[i]);
      }
      return ExprToString(*expr.children[0]) +
             (expr.negated ? " NOT IN (" : " IN (") + list + ")";
    }
    case ExprKind::kIsNull:
      return ExprToString(*expr.children[0]) +
             (expr.negated ? " IS NOT NULL" : " IS NULL");
  }
  return "?expr?";
}

std::string PlannedStatement::Explain() const {
  std::string out;
  auto line = [&out](const std::string& text) {
    out += text;
    out += '\n';
  };
  switch (kind) {
    case StatementKind::kSelect: {
      line("select");
      line("  " + ScanLine(select.driver));
      for (const JoinNode& join : select.joins) line("  " + JoinLine(join));
      if (select.where) {
        line("  filter " + ExprToString(*select.where->source));
      }
      if (select.aggregating) {
        // Every aggregate call as written, repeats included.
        const SelectStatement& ast = stmt->select;
        std::vector<const Expr*> calls;
        for (const SelectItem& item : ast.items) {
          if (!item.star) CollectAggregates(*item.expr, &calls);
        }
        if (ast.having != nullptr) CollectAggregates(*ast.having, &calls);
        for (const OrderByItem& item : ast.order_by) {
          CollectAggregates(*item.expr, &calls);
        }
        std::string agg = "  aggregate";
        if (!calls.empty()) agg += " " + JoinExprs(calls);
        if (!select.group_by.empty()) {
          agg += " group-by " + JoinExprs(select.group_by);
        }
        line(agg);
      }
      if (select.having) {
        line("  having " + ExprToString(*select.having->source));
      }
      if (!select.order_by.empty()) {
        std::string sort = "  sort ";
        for (size_t i = 0; i < select.order_by.size(); ++i) {
          if (i > 0) sort += ", ";
          sort += ExprToString(*select.order_by[i].expr.source);
          if (select.order_by[i].descending) sort += " desc";
        }
        line(sort);
      }
      if (select.limit >= 0) {
        line("  limit " + std::to_string(select.limit));
      }
      std::string project = "  project ";
      for (size_t i = 0; i < select.outputs.size(); ++i) {
        if (i > 0) project += ", ";
        project += select.outputs[i].name;
      }
      line(project);
      break;
    }
    case StatementKind::kInsert:
      line("insert " + insert.table + " (" +
           std::to_string(stmt->insert.rows.size()) + " rows)");
      break;
    case StatementKind::kUpdate:
    case StatementKind::kDelete: {
      const MutatePlan& plan = kind == StatementKind::kUpdate ? update : del;
      std::string head = kind == StatementKind::kUpdate ? "update" : "delete";
      head += " " + plan.table + " [" + PathLabel(plan.scan) + "]";
      if (!plan.pk_point) head += " [table-x-lock]";
      line(head);
      if (kind == StatementKind::kUpdate) {
        for (const auto& [column, expr] : stmt->update.assignments) {
          line("  set " + column + " = " + ExprToString(*expr));
        }
      }
      if (plan.where) {
        line("  filter " + ExprToString(*plan.where->source));
      }
      break;
    }
    case StatementKind::kCreateTable:
      line("create-table " + stmt->create_table.schema.name());
      break;
    case StatementKind::kCreateIndex:
      line("create-index " + stmt->create_index.index_name + " on " +
           stmt->create_index.table + "(" + stmt->create_index.column + ")");
      break;
    case StatementKind::kDropTable:
      line("drop-table " + stmt->drop_table.table);
      break;
  }
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

Status Planner::PlanInto(const std::string& db_name, const Statement& stmt,
                         PlannedStatement* plan) {
  plan->kind = stmt.kind;
  plan->explain = stmt.explain;
  switch (stmt.kind) {
    case StatementKind::kSelect:
    case StatementKind::kInsert:
    case StatementKind::kUpdate:
    case StatementKind::kDelete:
      break;
    default:
      return Status::OK();  // DDL needs no physical plan
  }
  Database* db = engine_->GetDatabase(db_name);
  if (db == nullptr) return Status::NotFound("database " + db_name);
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return PlanSelect(db, stmt.select, &plan->select);
    case StatementKind::kInsert:
      return PlanInsert(db, stmt.insert, &plan->insert);
    case StatementKind::kUpdate:
      return PlanMutate(db, stmt.update.table, stmt.update.where.get(),
                        &stmt.update.assignments, &plan->update);
    case StatementKind::kDelete:
      return PlanMutate(db, stmt.del.table, stmt.del.where.get(), nullptr,
                        &plan->del);
    default:
      return Status::OK();
  }
}

namespace {

void CountPlanned() {
  static obs::Counter* plan_total =
      obs::MetricsRegistry::Global().GetCounter("mtdb_sql_plan_total", {});
  obs::Increment(plan_total);
}

}  // namespace

Result<std::shared_ptr<const PlannedStatement>> Planner::Plan(
    const std::string& db_name, std::shared_ptr<const Statement> stmt) {
  CountPlanned();
  auto plan = std::make_shared<PlannedStatement>();
  plan->shared_stmt = std::move(stmt);
  plan->stmt = plan->shared_stmt.get();
  MTDB_RETURN_IF_ERROR(PlanInto(db_name, *plan->stmt, plan.get()));
  return std::shared_ptr<const PlannedStatement>(std::move(plan));
}

Result<std::unique_ptr<const PlannedStatement>> Planner::PlanBorrowed(
    const std::string& db_name, const Statement& stmt) {
  CountPlanned();
  auto plan = std::make_unique<PlannedStatement>();
  plan->stmt = &stmt;
  MTDB_RETURN_IF_ERROR(PlanInto(db_name, stmt, plan.get()));
  return std::unique_ptr<const PlannedStatement>(std::move(plan));
}

}  // namespace mtdb::sql
