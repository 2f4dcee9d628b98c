#include "src/storage/value.h"

#include <sstream>

namespace mtdb {

std::string_view ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return "INT";
    case ColumnType::kDouble:
      return "DOUBLE";
    case ColumnType::kString:
      return "VARCHAR";
  }
  return "?";
}

int Value::Compare(const Value& other) const {
  // Rank: null=0, numeric=1, string=2.
  auto rank = [](const Value& v) {
    if (v.is_null()) return 0;
    if (v.is_numeric()) return 1;
    return 2;
  };
  int ra = rank(*this);
  int rb = rank(other);
  if (ra != rb) return ra < rb ? -1 : 1;
  if (ra == 0) return 0;
  if (ra == 1) {
    // Compare exactly when both ints to avoid precision loss.
    if (is_int() && other.is_int()) {
      int64_t a = AsInt();
      int64_t b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = AsDouble();
    double b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  int cmp = AsString().compare(other.AsString());
  return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) {
    std::ostringstream out;
    out << std::get<double>(data_);
    return out.str();
  }
  std::string out = "'";
  for (char c : AsString()) {
    if (c == '\'') out += "''";
    else out.push_back(c);
  }
  out += "'";
  return out;
}

std::string Value::ToDisplayString() const {
  if (is_string()) return AsString();
  return ToString();
}

size_t Value::ByteSize() const {
  if (is_null()) return 1;
  if (is_string()) return AsString().size() + sizeof(std::string);
  return 8;
}

std::string Value::LockKey() const {
  if (is_null()) return "~null";
  if (is_int()) return std::string("i").append(std::to_string(AsInt()));
  if (is_double()) {
    return std::string("d").append(std::to_string(std::get<double>(data_)));
  }
  return "s" + AsString();
}

}  // namespace mtdb
