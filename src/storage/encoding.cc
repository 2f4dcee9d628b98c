#include "src/storage/encoding.h"

#include <cstring>
#include <utility>
#include <vector>

namespace mtdb::encoding {

namespace {

// Value tags. Stable in frames and log records; append-only.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt64 = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;

}  // namespace

void AppendValue(std::string* out, const Value& value) {
  if (value.is_null()) {
    AppendU8(out, kTagNull);
  } else if (value.is_int()) {
    AppendU8(out, kTagInt64);
    AppendU64(out, static_cast<uint64_t>(value.AsInt()));
  } else if (value.is_double()) {
    AppendU8(out, kTagDouble);
    uint64_t bits;
    double d = value.AsDouble();
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    AppendU64(out, bits);
  } else {
    AppendU8(out, kTagString);
    AppendString(out, value.AsString());
  }
}

void AppendRow(std::string* out, const Row& row) {
  AppendU32(out, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) AppendValue(out, v);
}

void AppendSchema(std::string* out, const TableSchema& schema) {
  AppendString(out, schema.name());
  AppendU32(out, static_cast<uint32_t>(schema.columns().size()));
  for (const Column& c : schema.columns()) {
    AppendString(out, c.name);
    AppendU8(out, static_cast<uint8_t>(c.type));
    AppendU8(out, c.not_null ? 1 : 0);
  }
  AppendU32(out, static_cast<uint32_t>(schema.primary_key_index()));
  AppendU32(out, static_cast<uint32_t>(schema.indexes().size()));
  for (const IndexDef& index : schema.indexes()) {
    AppendString(out, index.name);
    AppendU32(out, static_cast<uint32_t>(index.column_index));
  }
}

Value Reader::ReadValue() {
  switch (ReadU8()) {
    case kTagNull:
      return Value::Null();
    case kTagInt64:
      return Value(static_cast<int64_t>(ReadU64()));
    case kTagDouble: {
      uint64_t bits = ReadU64();
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return Value(d);
    }
    case kTagString:
      return Value(ReadBytes(ReadU32()));
    default:
      ok_ = false;
      return Value::Null();
  }
}

Row Reader::ReadRow() {
  Row row;
  uint32_t arity = ReadCount();
  row.reserve(arity);
  for (uint32_t i = 0; i < arity && ok_; ++i) row.push_back(ReadValue());
  return row;
}

TableSchema Reader::ReadSchema() {
  std::string name = ReadString();
  uint32_t num_columns = ReadCount();
  std::vector<Column> columns;
  columns.reserve(num_columns);
  for (uint32_t i = 0; i < num_columns && ok_; ++i) {
    Column c;
    c.name = ReadString();
    uint8_t type = ReadU8();
    if (type > static_cast<uint8_t>(ColumnType::kString)) ok_ = false;
    c.type = static_cast<ColumnType>(type);
    c.not_null = ReadU8() != 0;
    columns.push_back(std::move(c));
  }
  int pk = static_cast<int32_t>(ReadU32());
  if (pk < 0 || pk >= static_cast<int>(num_columns)) ok_ = false;
  TableSchema schema(std::move(name), std::move(columns), pk);
  uint32_t num_indexes = ReadCount();
  for (uint32_t i = 0; i < num_indexes && ok_; ++i) {
    std::string index_name = ReadString();
    int column_index = static_cast<int32_t>(ReadU32());
    if (!ok_ || column_index < 0 ||
        column_index >= static_cast<int>(schema.num_columns()) ||
        !schema.AddIndex(index_name, schema.columns()[column_index].name)
             .ok()) {
      ok_ = false;
    }
  }
  return schema;
}

}  // namespace mtdb::encoding
