#include "src/sql/executor.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <string_view>
#include <utility>

#include "src/obs/metrics.h"

namespace mtdb::sql {

namespace {

// Evaluates a row-independent expression.
Result<Value> EvalConst(const CompiledExpr& expr,
                        const std::vector<Value>& params) {
  return Evaluator(params).Eval(expr, Row());
}

// A hash consistent with Value::Compare equality, the `=` of WHERE: ints
// and doubles that compare equal hash alike, and all NULLs hash alike.
uint64_t HashOf(const Value& v) {
  if (v.is_null()) return 0x9E3779B97F4A7C15ULL;
  if (v.is_numeric()) {
    double d = v.AsDouble();
    if (d == 0.0) d = 0.0;  // -0.0 == 0.0
    return std::hash<double>{}(d);
  }
  return std::hash<std::string_view>{}(v.AsString());
}

// The rest of one SELECT after its rows are fetched. Consume() takes each
// row as it is scanned (for a single-table query, the stored row in place,
// under the table latch) and copies only what survives WHERE: the projected
// row and its sort keys, or, when aggregating, a new group's key values and
// first row. Groups are keyed by Value equality and keep one accumulator
// per aggregate slot. Finish() turns groups into rows, sorts, and cuts at
// LIMIT.
class SelectPipeline {
 public:
  SelectPipeline(const SelectPlan& plan, const std::vector<Value>& params)
      : plan_(plan), params_(params), evaluator_(params) {
    key_scratch_.resize(plan.group_by.size());
    key_refs_.resize(plan.group_by.size());
  }

  // False stops the scan: LIMIT reached, or an error (status()).
  bool Consume(const Row& row) {
    if (Full()) return false;
    if (plan_.where) {
      Result<bool> keep = evaluator_.Test(*plan_.where, row);
      if (!keep.ok()) return Fail(keep.status());
      if (!*keep) return true;
    }
    if (plan_.aggregating) return Accumulate(row);
    return Emit(evaluator_, row) && !Full();
  }

  const Status& status() const { return status_; }

  Result<QueryResult> Finish() {
    if (plan_.aggregating) MTDB_RETURN_IF_ERROR(EmitGroups());
    QueryResult result;
    for (const OutputColumn& out : plan_.outputs) {
      result.columns.push_back(out.name);
    }
    size_t limit = plan_.limit < 0
                       ? rows_.size()
                       : std::min(rows_.size(), static_cast<size_t>(plan_.limit));
    const size_t num_keys = plan_.order_by.size();
    if (num_keys == 0) {
      rows_.resize(limit);
      result.rows = std::move(rows_);
      return result;
    }
    // The first `limit` row indexes in key order, arrival order breaking
    // ties (what a stable sort gives).
    std::vector<size_t> order(rows_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::partial_sort(order.begin(), order.begin() + limit, order.end(),
                      [this, num_keys](size_t a, size_t b) {
                        for (size_t k = 0; k < num_keys; ++k) {
                          int cmp = sort_keys_[a * num_keys + k].Compare(
                              sort_keys_[b * num_keys + k]);
                          if (cmp != 0) {
                            return plan_.order_by[k].descending ? cmp > 0
                                                                : cmp < 0;
                          }
                        }
                        return a < b;
                      });
    result.rows.reserve(limit);
    for (size_t i = 0; i < limit; ++i) {
      result.rows.push_back(std::move(rows_[order[i]]));
    }
    return result;
  }

 private:
  // One aggregate slot of one group.
  struct Accumulator {
    int64_t count = 0;
    int64_t int_sum = 0;
    double sum = 0;
    bool all_int = true;
    Value extreme;  // MIN / MAX so far; NULL until a non-NULL input
  };

  bool Fail(Status status) {
    status_ = std::move(status);
    return false;
  }

  // A LIMIT without ORDER BY or grouping is reached: the scan may stop.
  bool Full() const {
    return plan_.limit >= 0 && !plan_.aggregating && plan_.order_by.empty() &&
           rows_.size() >= static_cast<size_t>(plan_.limit);
  }

  // Projects `row` (a scanned row, or a group's representative) into rows_
  // and its ORDER BY keys into sort_keys_.
  bool Emit(const Evaluator& eval, const Row& row) {
    Row projected;
    projected.reserve(plan_.outputs.size());
    for (const OutputColumn& out : plan_.outputs) {
      Result<Value> v = eval.Eval(out.expr, row);
      if (!v.ok()) return Fail(v.status());
      projected.push_back(std::move(v).value());
    }
    for (const OrderKey& key : plan_.order_by) {
      if (key.alias_slot >= 0) {
        sort_keys_.push_back(projected[key.alias_slot]);
        continue;
      }
      Result<Value> v = eval.Eval(key.expr, row);
      if (!v.ok()) return Fail(v.status());
      sort_keys_.push_back(std::move(v).value());
    }
    rows_.push_back(std::move(projected));
    return true;
  }

  // --- Grouping ---

  bool Accumulate(const Row& row) {
    const size_t num_keys = plan_.group_by.size();
    uint64_t hash = 0;
    for (size_t i = 0; i < num_keys; ++i) {
      key_refs_[i] = evaluator_.Ref(plan_.group_by[i], row, &key_scratch_[i],
                                    &status_);
      if (key_refs_[i] == nullptr) return false;
      hash = hash * 31 + HashOf(*key_refs_[i]);
    }
    size_t group = FindOrAddGroup(hash, row);
    const size_t num_aggs = plan_.aggregates.size();
    for (size_t a = 0; a < num_aggs; ++a) {
      const CompiledAggregate& agg = plan_.aggregates[a];
      Accumulator& acc = accumulators_[group * num_aggs + a];
      if (agg.fn == AggregateFn::kCountStar) {
        ++acc.count;
        continue;
      }
      Value scratch;
      const Value* v = evaluator_.Ref(agg.arg, row, &scratch, &status_);
      if (v == nullptr) return false;
      if (v->is_null()) continue;
      ++acc.count;
      if (v->is_int()) {
        acc.int_sum += v->AsInt();
        acc.sum += v->AsDouble();
      } else {
        acc.all_int = false;
        if (v->is_double()) acc.sum += v->AsDouble();
      }
      if ((agg.fn == AggregateFn::kMin &&
           (acc.extreme.is_null() || *v < acc.extreme)) ||
          (agg.fn == AggregateFn::kMax &&
           (acc.extreme.is_null() || *v > acc.extreme))) {
        acc.extreme = *v;
      }
    }
    return true;
  }

  // The group whose keys equal key_refs_, added (with `row` as its
  // representative) if there is none. Open addressing over group indexes,
  // at most half full.
  size_t FindOrAddGroup(uint64_t hash, const Row& row) {
    const size_t num_keys = plan_.group_by.size();
    if ((hashes_.size() + 1) * 2 > buckets_.size()) Rehash();
    size_t mask = buckets_.size() - 1;
    for (size_t b = hash & mask;; b = (b + 1) & mask) {
      int32_t group = buckets_[b];
      if (group < 0) {
        buckets_[b] = static_cast<int32_t>(hashes_.size());
        break;
      }
      if (hashes_[group] != hash) continue;
      bool equal = true;
      for (size_t i = 0; i < num_keys && equal; ++i) {
        equal = keys_[group * num_keys + i] == *key_refs_[i];
      }
      if (equal) return static_cast<size_t>(group);
    }
    hashes_.push_back(hash);
    for (size_t i = 0; i < num_keys; ++i) keys_.push_back(*key_refs_[i]);
    representatives_.push_back(row);
    accumulators_.resize(accumulators_.size() + plan_.aggregates.size());
    return hashes_.size() - 1;
  }

  void Rehash() {
    buckets_.assign(std::max<size_t>(16, buckets_.size() * 2), -1);
    size_t mask = buckets_.size() - 1;
    for (size_t g = 0; g < hashes_.size(); ++g) {
      size_t b = hashes_[g] & mask;
      while (buckets_[b] >= 0) b = (b + 1) & mask;
      buckets_[b] = static_cast<int32_t>(g);
    }
  }

  Value Final(const CompiledAggregate& agg, const Accumulator& acc) const {
    switch (agg.fn) {
      case AggregateFn::kCountStar:
      case AggregateFn::kCount:
        return Value(acc.count);
      case AggregateFn::kSum:
        if (acc.count == 0) return Value();
        return acc.all_int ? Value(acc.int_sum) : Value(acc.sum);
      case AggregateFn::kAvg:
        if (acc.count == 0) return Value();
        return Value(acc.sum / static_cast<double>(acc.count));
      case AggregateFn::kMin:
      case AggregateFn::kMax:
        return acc.extreme;
    }
    return Value();
  }

  // HAVING, projection and sort keys per group, in first-seen order. A
  // query without GROUP BY has one group even over no rows, represented by
  // a row of NULLs.
  Status EmitGroups() {
    if (plan_.group_by.empty() && representatives_.empty()) {
      representatives_.push_back(Row(plan_.width, Value()));
      accumulators_.resize(plan_.aggregates.size());
    }
    const size_t num_aggs = plan_.aggregates.size();
    std::vector<Value> finals(num_aggs);
    Evaluator group_eval(params_, &finals);
    for (size_t g = 0; g < representatives_.size(); ++g) {
      for (size_t a = 0; a < num_aggs; ++a) {
        finals[a] =
            Final(plan_.aggregates[a], accumulators_[g * num_aggs + a]);
      }
      const Row& representative = representatives_[g];
      if (plan_.having) {
        MTDB_ASSIGN_OR_RETURN(bool keep,
                              group_eval.Test(*plan_.having, representative));
        if (!keep) continue;
      }
      if (!Emit(group_eval, representative)) return status_;
    }
    return Status::OK();
  }

  const SelectPlan& plan_;
  const std::vector<Value>& params_;
  const Evaluator evaluator_;
  Status status_;
  // Projected rows in arrival order, and order_by.size() sort keys per row.
  std::vector<Row> rows_;
  std::vector<Value> sort_keys_;

  // Per row: the group key values, in place or computed into key_scratch_.
  std::vector<Value> key_scratch_;
  std::vector<const Value*> key_refs_;
  // Per group, in first-seen order.
  std::vector<uint64_t> hashes_;
  std::vector<Value> keys_;  // group_by.size() per group
  std::vector<Row> representatives_;
  std::vector<Accumulator> accumulators_;  // aggregates.size() per group
  std::vector<int32_t> buckets_;           // group index, or -1
};

}  // namespace

Result<QueryResult> SqlExecutor::ExecuteSql(uint64_t txn_id,
                                            const std::string& db_name,
                                            const std::string& sql,
                                            const std::vector<Value>& params) {
  MTDB_ASSIGN_OR_RETURN(std::shared_ptr<const PlannedStatement> plan,
                        engine_->GetPlan(db_name, sql));
  return ExecutePlan(txn_id, db_name, *plan, params);
}

Result<QueryResult> SqlExecutor::Execute(uint64_t txn_id,
                                         const std::string& db_name,
                                         const Statement& stmt,
                                         const std::vector<Value>& params) {
  Planner planner(engine_);
  MTDB_ASSIGN_OR_RETURN(std::unique_ptr<const PlannedStatement> plan,
                        planner.PlanBorrowed(db_name, stmt));
  return ExecutePlan(txn_id, db_name, *plan, params);
}

Result<QueryResult> SqlExecutor::ExecutePlan(uint64_t txn_id,
                                             const std::string& db_name,
                                             const PlannedStatement& plan,
                                             const std::vector<Value>& params) {
  static obs::Counter* execute_total =
      obs::MetricsRegistry::Global().GetCounter("mtdb_sql_execute_total", {});
  obs::Increment(execute_total);
  if (plan.explain) {
    QueryResult result;
    result.columns.push_back("plan");
    const std::string text = plan.Explain();
    size_t start = 0;
    while (start <= text.size()) {
      size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      result.rows.push_back(Row{Value(text.substr(start, end - start))});
      if (end == text.size()) break;
      start = end + 1;
    }
    return result;
  }
  switch (plan.kind) {
    case StatementKind::kSelect:
      return ExecSelect(txn_id, db_name, plan.select, params);
    case StatementKind::kInsert:
      return ExecInsert(txn_id, db_name, plan, params);
    case StatementKind::kUpdate:
      return ExecMutate(txn_id, db_name, plan.update, /*is_update=*/true,
                        params);
    case StatementKind::kDelete:
      return ExecMutate(txn_id, db_name, plan.del, /*is_update=*/false,
                        params);
    case StatementKind::kCreateTable:
    case StatementKind::kCreateIndex:
    case StatementKind::kDropTable:
      return ExecDdl(db_name, *plan.stmt);
  }
  return Status::Internal("unhandled statement kind");
}

Result<QueryResult> SqlExecutor::ExecDdl(const std::string& db_name,
                                         const Statement& stmt) {
  switch (stmt.kind) {
    case StatementKind::kCreateTable: {
      MTDB_RETURN_IF_ERROR(
          engine_->CreateTable(db_name, stmt.create_table.schema));
      QueryResult result;
      return result;
    }
    case StatementKind::kCreateIndex: {
      MTDB_RETURN_IF_ERROR(engine_->CreateIndex(
          db_name, stmt.create_index.table, stmt.create_index.index_name,
          stmt.create_index.column));
      QueryResult result;
      return result;
    }
    case StatementKind::kDropTable: {
      MTDB_RETURN_IF_ERROR(engine_->DropTable(db_name, stmt.drop_table.table));
      QueryResult result;
      return result;
    }
    default:
      return Status::Internal("not a DDL statement");
  }
}

// --- Access paths ---

Status SqlExecutor::ScanRows(uint64_t txn_id, const std::string& db_name,
                             const ScanNode& scan,
                             const std::vector<Value>& params,
                             const Engine::RowVisitor& visit) {
  switch (scan.path) {
    case AccessPathKind::kPkPoint: {
      MTDB_ASSIGN_OR_RETURN(Value key, EvalConst(scan.key, params));
      MTDB_ASSIGN_OR_RETURN(std::optional<Row> row,
                            engine_->Read(txn_id, db_name, scan.table, key));
      if (row.has_value()) visit(*row);
      return Status::OK();
    }
    case AccessPathKind::kIndexProbe: {
      MTDB_ASSIGN_OR_RETURN(Value key, EvalConst(scan.key, params));
      MTDB_ASSIGN_OR_RETURN(std::vector<Value> pks,
                            engine_->IndexLookup(txn_id, db_name, scan.table,
                                                 scan.index_column, key));
      for (const Value& pk : pks) {
        MTDB_ASSIGN_OR_RETURN(std::optional<Row> row,
                              engine_->Read(txn_id, db_name, scan.table, pk));
        if (row.has_value() && !visit(*row)) break;
      }
      return Status::OK();
    }
    case AccessPathKind::kPkRange: {
      // Keep the tightest of the (inclusive) bounds; strict comparisons are
      // re-applied by the residual WHERE filter.
      std::optional<Value> range_lo, range_hi;
      for (const CompiledExpr& bound : scan.lo) {
        MTDB_ASSIGN_OR_RETURN(Value v, EvalConst(bound, params));
        if (!range_lo || v > *range_lo) range_lo = std::move(v);
      }
      for (const CompiledExpr& bound : scan.hi) {
        MTDB_ASSIGN_OR_RETURN(Value v, EvalConst(bound, params));
        if (!range_hi || v < *range_hi) range_hi = std::move(v);
      }
      return engine_->Scan(txn_id, db_name, scan.table, range_lo, range_hi,
                           visit);
    }
    case AccessPathKind::kFullScan:
      return engine_->Scan(txn_id, db_name, scan.table, std::nullopt,
                           std::nullopt, visit);
  }
  return Status::Internal("unhandled access path");
}

// --- SELECT ---

Result<QueryResult> SqlExecutor::ExecSelect(uint64_t txn_id,
                                            const std::string& db_name,
                                            const SelectPlan& plan,
                                            const std::vector<Value>& params) {
  SelectPipeline pipeline(plan, params);
  auto consume = [&pipeline](const Row& row) { return pipeline.Consume(row); };
  if (plan.joins.empty()) {
    MTDB_RETURN_IF_ERROR(
        ScanRows(txn_id, db_name, plan.driver, params, consume));
    MTDB_RETURN_IF_ERROR(pipeline.status());
    return pipeline.Finish();
  }

  // A join probes the engine per outer row, which the scan visitor must not
  // do under the driver's table latch: copy the driver's rows out first.
  auto collect = [](std::vector<Row>* rows) {
    return [rows](const Row& row) {
      rows->push_back(row);
      return true;
    };
  };
  std::vector<Row> combined;
  MTDB_RETURN_IF_ERROR(
      ScanRows(txn_id, db_name, plan.driver, params, collect(&combined)));

  // Fold in each join, probing the inner side per outer row when the plan
  // chose a probe strategy, and keeping the joined rows that pass the ON
  // condition.
  Evaluator evaluator(params);
  for (const JoinNode& join : plan.joins) {
    std::vector<Row> next;
    auto emit = [&](const Row& outer_row, const Row& inner) -> Status {
      Row joined;
      joined.reserve(outer_row.size() + inner.size());
      joined.insert(joined.end(), outer_row.begin(), outer_row.end());
      joined.insert(joined.end(), inner.begin(), inner.end());
      if (join.residual) {
        MTDB_ASSIGN_OR_RETURN(bool keep,
                              evaluator.Test(*join.residual, joined));
        if (!keep) return Status::OK();
      }
      next.push_back(std::move(joined));
      return Status::OK();
    };

    if (join.strategy != JoinStrategy::kScan) {
      for (const Row& outer_row : combined) {
        MTDB_ASSIGN_OR_RETURN(Value key,
                              evaluator.Eval(join.probe_key, outer_row));
        if (key.is_null()) continue;
        std::vector<Value> inner_pks;
        if (join.strategy == JoinStrategy::kPkProbe) {
          inner_pks.push_back(std::move(key));
        } else {
          MTDB_ASSIGN_OR_RETURN(inner_pks,
                                engine_->IndexLookup(txn_id, db_name,
                                                     join.table,
                                                     join.probe_column, key));
        }
        for (const Value& inner_pk : inner_pks) {
          MTDB_ASSIGN_OR_RETURN(
              std::optional<Row> inner,
              engine_->Read(txn_id, db_name, join.table, inner_pk));
          if (inner.has_value()) MTDB_RETURN_IF_ERROR(emit(outer_row, *inner));
        }
      }
    } else {
      // Full scan of the inner side, fetched once.
      std::vector<Row> inner_rows;
      MTDB_RETURN_IF_ERROR(engine_->Scan(txn_id, db_name, join.table,
                                         std::nullopt, std::nullopt,
                                         collect(&inner_rows)));
      for (const Row& outer_row : combined) {
        for (const Row& inner : inner_rows) {
          MTDB_RETURN_IF_ERROR(emit(outer_row, inner));
        }
      }
    }
    combined = std::move(next);
  }

  for (const Row& row : combined) {
    if (!pipeline.Consume(row)) break;
  }
  MTDB_RETURN_IF_ERROR(pipeline.status());
  return pipeline.Finish();
}

// --- INSERT / UPDATE / DELETE ---

Result<QueryResult> SqlExecutor::ExecInsert(uint64_t txn_id,
                                            const std::string& db_name,
                                            const PlannedStatement& plan,
                                            const std::vector<Value>& params) {
  const InsertPlan& insert = plan.insert;
  QueryResult result;
  for (const std::vector<CompiledExpr>& values : insert.rows) {
    Row row(insert.row_width, Value());
    for (size_t i = 0; i < values.size(); ++i) {
      MTDB_ASSIGN_OR_RETURN(row[insert.column_map[i]],
                            EvalConst(values[i], params));
    }
    MTDB_RETURN_IF_ERROR(engine_->Insert(txn_id, db_name, insert.table, row));
    result.affected_rows++;
  }
  return result;
}

Result<QueryResult> SqlExecutor::ExecMutate(uint64_t txn_id,
                                            const std::string& db_name,
                                            const MutatePlan& plan,
                                            bool is_update,
                                            const std::vector<Value>& params) {
  Evaluator evaluator(params);

  // Anything but a provable PK point escalates to a table X lock before
  // scanning (the executor's simple, correct protocol for predicate writes —
  // see DESIGN.md).
  if (!plan.pk_point) {
    MTDB_RETURN_IF_ERROR(
        engine_->LockTableExclusive(txn_id, db_name, plan.table));
  }

  // WHERE runs in the scan; the rows it keeps are copied out, and written
  // after the scan, since a write calls the engine.
  std::vector<Row> matches;
  Status filter_status;
  MTDB_RETURN_IF_ERROR(ScanRows(
      txn_id, db_name, plan.scan, params, [&](const Row& row) {
        if (plan.where) {
          Result<bool> keep = evaluator.Test(*plan.where, row);
          if (!keep.ok()) {
            filter_status = keep.status();
            return false;
          }
          if (!*keep) return true;
        }
        matches.push_back(row);
        return true;
      }));
  MTDB_RETURN_IF_ERROR(filter_status);

  QueryResult result;
  for (const Row& old_row : matches) {
    if (is_update) {
      Row new_row = old_row;
      for (const auto& [index, expr] : plan.assignments) {
        MTDB_ASSIGN_OR_RETURN(new_row[index], evaluator.Eval(expr, old_row));
      }
      MTDB_RETURN_IF_ERROR(engine_->Update(txn_id, db_name, plan.table,
                                           old_row[plan.pk], new_row));
    } else {
      MTDB_RETURN_IF_ERROR(
          engine_->Delete(txn_id, db_name, plan.table, old_row[plan.pk]));
    }
    result.affected_rows++;
  }
  return result;
}

}  // namespace mtdb::sql
