#include "src/sql/expression.h"

#include <string_view>
#include <utility>

namespace mtdb::sql {

void RowLayout::Append(const std::string& qualifier,
                       const TableSchema& schema) {
  for (const Column& column : schema.columns()) {
    qualifiers_.push_back(qualifier);
    names_.push_back(column.name);
  }
}

Result<int> RowLayout::Resolve(const std::string& qualifier,
                               const std::string& name) const {
  int found = -1;
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] != name) continue;
    if (!qualifier.empty() && qualifiers_[i] != qualifier) continue;
    if (found >= 0) {
      return Status::InvalidArgument("ambiguous column reference " + name);
    }
    found = static_cast<int>(i);
  }
  if (found < 0) {
    return Status::InvalidArgument(
        "unknown column " + (qualifier.empty() ? name : qualifier + "." + name));
  }
  return found;
}

// --- Compilation ---

namespace {

Result<OpCode> BinaryOpCode(const std::string& op) {
  static constexpr std::pair<std::string_view, OpCode> kOps[] = {
      {"AND", OpCode::kAnd}, {"OR", OpCode::kOr},    {"=", OpCode::kEq},
      {"<>", OpCode::kNe},   {"<", OpCode::kLt},     {"<=", OpCode::kLe},
      {">", OpCode::kGt},    {">=", OpCode::kGe},    {"LIKE", OpCode::kLike},
      {"+", OpCode::kAdd},   {"-", OpCode::kSub},    {"*", OpCode::kMul},
      {"/", OpCode::kDiv},   {"%", OpCode::kMod},
  };
  for (const auto& [text, code] : kOps) {
    if (op == text) return code;
  }
  return Status::Internal("unknown binary operator " + op);
}

// Compiles one aggregate call into a slot of *aggregates, reusing the slot
// of an identical earlier call.
Result<int> CompileAggregate(const Expr& call, const RowLayout& layout,
                             std::vector<CompiledAggregate>* aggregates) {
  const std::string fingerprint = call.Fingerprint();
  for (size_t i = 0; i < aggregates->size(); ++i) {
    if ((*aggregates)[i].source->Fingerprint() == fingerprint) {
      return static_cast<int>(i);
    }
  }
  CompiledAggregate agg;
  agg.source = &call;
  if (call.star) {
    if (call.function != "COUNT") {
      return Status::InvalidArgument("only COUNT takes *, not " +
                                     call.function);
    }
    agg.fn = AggregateFn::kCountStar;
  } else {
    if (call.children.size() != 1) {
      return Status::InvalidArgument("aggregate " + call.function +
                                     " takes one argument");
    }
    if (call.function == "COUNT") agg.fn = AggregateFn::kCount;
    else if (call.function == "SUM") agg.fn = AggregateFn::kSum;
    else if (call.function == "AVG") agg.fn = AggregateFn::kAvg;
    else if (call.function == "MIN") agg.fn = AggregateFn::kMin;
    else agg.fn = AggregateFn::kMax;
    // No aggregates inside an aggregate's argument.
    MTDB_ASSIGN_OR_RETURN(agg.arg, Compile(*call.children[0], layout));
  }
  aggregates->push_back(std::move(agg));
  return static_cast<int>(aggregates->size() - 1);
}

}  // namespace

Result<CompiledExpr> Compile(const Expr& expr, const RowLayout& layout,
                             std::vector<CompiledAggregate>* aggregates) {
  CompiledExpr node;
  node.source = &expr;
  switch (expr.kind) {
    case ExprKind::kLiteral:
      node.op = OpCode::kLiteral;
      return node;
    case ExprKind::kColumnRef: {
      node.op = OpCode::kColumn;
      MTDB_ASSIGN_OR_RETURN(node.slot, layout.Resolve(expr.table, expr.column));
      return node;
    }
    case ExprKind::kParam:
      node.op = OpCode::kParam;
      node.slot = expr.param_index;
      return node;
    case ExprKind::kFunction: {
      if (!IsAggregateFunction(expr.function)) {
        return Status::InvalidArgument("unknown function " + expr.function);
      }
      if (aggregates == nullptr) {
        return Status::InvalidArgument(
            "aggregate " + expr.function +
            " used outside an aggregating query context");
      }
      node.op = OpCode::kAggregate;
      MTDB_ASSIGN_OR_RETURN(node.slot,
                            CompileAggregate(expr, layout, aggregates));
      return node;
    }
    case ExprKind::kUnary:
      if (expr.op == "NOT") {
        node.op = OpCode::kNot;
      } else if (expr.op == "-") {
        node.op = OpCode::kNegate;
      } else {
        return Status::Internal("unknown unary operator " + expr.op);
      }
      break;
    case ExprKind::kBinary: {
      MTDB_ASSIGN_OR_RETURN(node.op, BinaryOpCode(expr.op));
      break;
    }
    case ExprKind::kInList:
      node.op = OpCode::kInList;
      break;
    case ExprKind::kIsNull:
      node.op = OpCode::kIsNull;
      break;
  }
  node.children.reserve(expr.children.size());
  for (const ExprPtr& child : expr.children) {
    MTDB_ASSIGN_OR_RETURN(CompiledExpr compiled,
                          Compile(*child, layout, aggregates));
    node.children.push_back(std::move(compiled));
  }
  return node;
}

// --- Evaluation ---

bool Evaluator::IsTruthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.is_numeric()) return v.AsDouble() != 0.0;
  return !v.AsString().empty();
}

bool Evaluator::LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative glob matching with backtracking on '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace {

Value Bool(bool b) { return Value(int64_t{b ? 1 : 0}); }

// Arithmetic over two non-null operands into *out; false with *status set
// on a type error.
bool Arithmetic(OpCode op, const Value& a, const Value& b, Value* out,
                Status* status) {
  if (!a.is_numeric() || !b.is_numeric()) {
    *status = Status::InvalidArgument("arithmetic on non-numeric value");
    return false;
  }
  // SQL: division by zero yields NULL. (An if, not ?:, keeps GCC 12's
  // -O3 -Wmaybe-uninitialized false positive on Value temporaries away.)
  if (op == OpCode::kDiv) {
    double denom = b.AsDouble();
    if (denom == 0.0) {
      *out = Value();
    } else {
      *out = Value(a.AsDouble() / denom);
    }
    return true;
  }
  if (op == OpCode::kMod) {
    if (!a.is_int() || !b.is_int()) {
      *status = Status::InvalidArgument("modulo requires integers");
      return false;
    }
    if (b.AsInt() == 0) {
      *out = Value();
    } else {
      *out = Value(a.AsInt() % b.AsInt());
    }
    return true;
  }
  if (a.is_int() && b.is_int()) {
    int64_t x = a.AsInt(), y = b.AsInt();
    *out = Value(op == OpCode::kAdd ? x + y : op == OpCode::kSub ? x - y
                                                                 : x * y);
  } else {
    double x = a.AsDouble(), y = b.AsDouble();
    *out = Value(op == OpCode::kAdd ? x + y : op == OpCode::kSub ? x - y
                                                                 : x * y);
  }
  return true;
}

}  // namespace

const Value* Evaluator::Binary(const CompiledExpr& expr, const Row& row,
                               Value* scratch, Status* status) const {
  Value lhs_scratch;
  const Value* lhs = Ref(expr.children[0], row, &lhs_scratch, status);
  if (lhs == nullptr) return nullptr;

  // Short-circuit logical operators with three-valued NULL handling.
  if (expr.op == OpCode::kAnd || expr.op == OpCode::kOr) {
    const bool is_and = expr.op == OpCode::kAnd;
    const bool lhs_null = lhs->is_null();
    const bool lhs_true = IsTruthy(*lhs);
    if (is_and && !lhs_null && !lhs_true) return &(*scratch = Bool(false));
    if (!is_and && !lhs_null && lhs_true) return &(*scratch = Bool(true));
    Value rhs_scratch;
    const Value* rhs = Ref(expr.children[1], row, &rhs_scratch, status);
    if (rhs == nullptr) return nullptr;
    const bool rhs_null = rhs->is_null();
    const bool rhs_true = IsTruthy(*rhs);
    if (is_and) {
      if (!rhs_null && !rhs_true) *scratch = Bool(false);
      else if (lhs_null || rhs_null) *scratch = Value();
      else *scratch = Bool(true);
    } else {
      if (!rhs_null && rhs_true) *scratch = Bool(true);
      else if (lhs_null || rhs_null) *scratch = Value();
      else *scratch = Bool(false);
    }
    return scratch;
  }

  Value rhs_scratch;
  const Value* rhs = Ref(expr.children[1], row, &rhs_scratch, status);
  if (rhs == nullptr) return nullptr;
  if (lhs->is_null() || rhs->is_null()) return &(*scratch = Value());

  switch (expr.op) {
    case OpCode::kLike:
      if (!lhs->is_string() || !rhs->is_string()) {
        *status = Status::InvalidArgument("LIKE requires string operands");
        return nullptr;
      }
      return &(*scratch = Bool(LikeMatch(lhs->AsString(), rhs->AsString())));
    case OpCode::kEq:
      return &(*scratch = Bool(lhs->Compare(*rhs) == 0));
    case OpCode::kNe:
      return &(*scratch = Bool(lhs->Compare(*rhs) != 0));
    case OpCode::kLt:
      return &(*scratch = Bool(lhs->Compare(*rhs) < 0));
    case OpCode::kLe:
      return &(*scratch = Bool(lhs->Compare(*rhs) <= 0));
    case OpCode::kGt:
      return &(*scratch = Bool(lhs->Compare(*rhs) > 0));
    case OpCode::kGe:
      return &(*scratch = Bool(lhs->Compare(*rhs) >= 0));
    default:
      if (!Arithmetic(expr.op, *lhs, *rhs, scratch, status)) return nullptr;
      return scratch;
  }
}

const Value* Evaluator::Ref(const CompiledExpr& expr, const Row& row,
                            Value* scratch, Status* status) const {
  switch (expr.op) {
    case OpCode::kColumn:
      if (static_cast<size_t>(expr.slot) >= row.size()) {
        *status = Status::Internal("row narrower than layout");
        return nullptr;
      }
      return &row[expr.slot];
    case OpCode::kParam:
      if (expr.slot < 0 || static_cast<size_t>(expr.slot) >= params_->size()) {
        *status = Status::InvalidArgument("missing bind parameter " +
                                          std::to_string(expr.slot));
        return nullptr;
      }
      return &(*params_)[expr.slot];
    case OpCode::kLiteral:
      return &expr.source->literal;
    case OpCode::kAggregate:
      if (aggregates_ == nullptr ||
          static_cast<size_t>(expr.slot) >= aggregates_->size()) {
        *status = Status::Internal("aggregate value not computed: " +
                                   expr.source->function);
        return nullptr;
      }
      return &(*aggregates_)[expr.slot];
    case OpCode::kNot:
    case OpCode::kNegate:
    case OpCode::kIsNull: {
      Value operand_scratch;
      const Value* operand =
          Ref(expr.children[0], row, &operand_scratch, status);
      if (operand == nullptr) return nullptr;
      if (expr.op == OpCode::kIsNull) {
        return &(*scratch = Bool(operand->is_null() != expr.source->negated));
      }
      if (operand->is_null()) return &(*scratch = Value());
      if (expr.op == OpCode::kNot) {
        return &(*scratch = Bool(!IsTruthy(*operand)));
      }
      if (operand->is_int()) return &(*scratch = Value(-operand->AsInt()));
      if (operand->is_double()) {
        return &(*scratch = Value(-operand->AsDouble()));
      }
      *status = Status::InvalidArgument("unary minus on non-numeric value");
      return nullptr;
    }
    case OpCode::kInList: {
      Value needle_scratch;
      const Value* needle =
          Ref(expr.children[0], row, &needle_scratch, status);
      if (needle == nullptr) return nullptr;
      if (needle->is_null()) return &(*scratch = Value());
      bool found = false;
      for (size_t i = 1; i < expr.children.size() && !found; ++i) {
        Value candidate_scratch;
        const Value* candidate =
            Ref(expr.children[i], row, &candidate_scratch, status);
        if (candidate == nullptr) return nullptr;
        found = !candidate->is_null() && needle->Compare(*candidate) == 0;
      }
      return &(*scratch = Bool(found != expr.source->negated));
    }
    default:
      return Binary(expr, row, scratch, status);
  }
}

Result<Value> Evaluator::Eval(const CompiledExpr& expr, const Row& row) const {
  Value scratch;
  Status status;
  const Value* value = Ref(expr, row, &scratch, &status);
  if (value == nullptr) return status;
  if (value == &scratch) return scratch;
  return *value;
}

Result<bool> Evaluator::Test(const CompiledExpr& expr, const Row& row) const {
  Value scratch;
  Status status;
  const Value* value = Ref(expr, row, &scratch, &status);
  if (value == nullptr) return status;
  return IsTruthy(*value);
}

}  // namespace mtdb::sql
