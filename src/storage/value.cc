#include "src/storage/value.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
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

void Value::AssignString(std::string_view v) {
  if (v.size() <= kInlineCapacity) {
    if (!v.empty()) std::memcpy(bytes_, v.data(), v.size());
    tag_ = static_cast<uint8_t>(kInline | v.size());
    return;
  }
  if (v.size() > std::numeric_limits<uint32_t>::max()) {
    // The heap length is a u32, as on the wire: never truncate.
    std::fprintf(stderr, "mtdb: a %zu-byte string does not fit a Value\n",
                 v.size());
    std::abort();
  }
  char* data = new char[v.size()];
  std::memcpy(data, v.data(), v.size());
  uint32_t size = static_cast<uint32_t>(v.size());
  std::memcpy(bytes_, &data, sizeof data);
  std::memcpy(bytes_ + sizeof data, &size, sizeof size);
  tag_ = kHeap;
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
    out << AsDouble();
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
  if (is_string()) return std::string(AsString());
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
    return std::string("d").append(std::to_string(AsDouble()));
  }
  return std::string("s").append(AsString());
}

}  // namespace mtdb
