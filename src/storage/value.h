#ifndef MTDB_STORAGE_VALUE_H_
#define MTDB_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace mtdb {

// SQL column types supported by the engine.
enum class ColumnType {
  kInt64,
  kDouble,
  kString,
};

std::string_view ColumnTypeName(ColumnType type);

// A dynamically typed SQL value: NULL, INT64, DOUBLE, or STRING.
//
// Ordering follows SQL semantics for homogeneous comparisons; NULL sorts
// before everything (used only for index/PK ordering — predicate evaluation
// treats NULL comparisons as false, handled in the expression evaluator).
// Int/double comparisons coerce to double.
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }

  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const {
    if (is_int()) return static_cast<double>(std::get<int64_t>(data_));
    return std::get<double>(data_);
  }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  // True when the value is numeric (int or double).
  bool is_numeric() const { return is_int() || is_double(); }

  // Total order used by indexes: NULL < numerics < strings; numerics compare
  // as doubles. Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  // SQL literal rendering ('quoted' strings, NULL keyword).
  std::string ToString() const;
  // Raw rendering without quotes (for CSV-style output).
  std::string ToDisplayString() const;

  // Approximate in-memory footprint, used for database-size accounting.
  size_t ByteSize() const;

  // Key suitable for building lock identifiers.
  std::string LockKey() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

// A row is a flat vector of values, positionally matching a table schema.
using Row = std::vector<Value>;

}  // namespace mtdb

#endif  // MTDB_STORAGE_VALUE_H_
