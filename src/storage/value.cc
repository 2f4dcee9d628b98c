#include "src/storage/value.h"

#include <cstring>
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

namespace {

// Wire tags. Values are stable on the wire; append-only.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt64 = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;

void AppendFixed64(std::string* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

bool ReadFixed64(std::string_view* data, uint64_t* v) {
  if (data->size() < 8) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>((*data)[i])) << (8 * i);
  }
  data->remove_prefix(8);
  *v = out;
  return true;
}

void AppendFixed32(std::string* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

bool ReadFixed32(std::string_view* data, uint32_t* v) {
  if (data->size() < 4) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>((*data)[i])) << (8 * i);
  }
  data->remove_prefix(4);
  *v = out;
  return true;
}

}  // namespace

void Value::EncodeTo(std::string* out) const {
  if (is_null()) {
    out->push_back(static_cast<char>(kTagNull));
  } else if (is_int()) {
    out->push_back(static_cast<char>(kTagInt64));
    AppendFixed64(out, static_cast<uint64_t>(AsInt()));
  } else if (is_double()) {
    out->push_back(static_cast<char>(kTagDouble));
    uint64_t bits;
    double d = std::get<double>(data_);
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    AppendFixed64(out, bits);
  } else {
    const std::string& s = AsString();
    out->push_back(static_cast<char>(kTagString));
    AppendFixed32(out, static_cast<uint32_t>(s.size()));
    out->append(s);
  }
}

Result<Value> Value::DecodeFrom(std::string_view* data) {
  if (data->empty()) return Status::InvalidArgument("truncated value");
  uint8_t tag = static_cast<uint8_t>((*data)[0]);
  data->remove_prefix(1);
  uint64_t bits = 0;
  switch (tag) {
    case kTagNull:
      return Value::Null();
    case kTagInt64:
      if (!ReadFixed64(data, &bits)) {
        return Status::InvalidArgument("truncated INT64 value");
      }
      return Value(static_cast<int64_t>(bits));
    case kTagDouble: {
      if (!ReadFixed64(data, &bits)) {
        return Status::InvalidArgument("truncated DOUBLE value");
      }
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return Value(d);
    }
    case kTagString: {
      uint32_t len = 0;
      if (!ReadFixed32(data, &len) || data->size() < len) {
        return Status::InvalidArgument("truncated STRING value");
      }
      Value v(std::string(data->substr(0, len)));
      data->remove_prefix(len);
      return v;
    }
    default:
      return Status::InvalidArgument("unknown value tag " +
                                     std::to_string(tag));
  }
}

}  // namespace mtdb
