#ifndef MTDB_STORAGE_VALUE_H_
#define MTDB_STORAGE_VALUE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
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
//
// Layout: 16 bytes, because every stored cell, row key and index entry is
// one. Bytes 0-14 hold the payload and byte 15 the tag (the kind in the high
// nibble; an inline string's length in the low one). NULL, INT64 and DOUBLE
// live in place, as does a string of up to 15 bytes. A longer string owns
// one heap block of exactly its size, with the pointer in bytes 0-7 and the
// u32 length in bytes 8-11. A copy deep-copies that block, as std::string
// does; a move takes it and leaves the source NULL. Any byte sequence is a
// string, the empty one and embedded NULs included; a length above
// UINT32_MAX aborts the process.
class Value {
 public:
  Value() = default;
  explicit Value(int64_t v) : tag_(kInt) { std::memcpy(bytes_, &v, sizeof v); }
  explicit Value(double v) : tag_(kDouble) {
    std::memcpy(bytes_, &v, sizeof v);
  }
  explicit Value(std::string_view v) { AssignString(v); }
  explicit Value(const std::string& v) : Value(std::string_view(v)) {}
  explicit Value(const char* v) : Value(std::string_view(v)) {}

  Value(const Value& other) { CopyFrom(other); }
  Value(Value&& other) noexcept { TakeFrom(other); }
  Value& operator=(const Value& other) {
    if (this != &other) *this = Value(other);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      TakeFrom(other);
    }
    return *this;
  }
  ~Value() { Release(); }

  static Value Null() { return Value(); }

  bool is_null() const { return tag_ == kNull; }
  bool is_int() const { return tag_ == kInt; }
  bool is_double() const { return tag_ == kDouble; }
  bool is_string() const { return tag_ >= kInline; }

  int64_t AsInt() const {
    int64_t v;
    std::memcpy(&v, bytes_, sizeof v);
    return v;
  }
  double AsDouble() const {
    if (is_int()) return static_cast<double>(AsInt());
    double v;
    std::memcpy(&v, bytes_, sizeof v);
    return v;
  }
  // A view of the string's bytes, valid until this Value is assigned to,
  // moved from or destroyed (an inline string lives inside the Value).
  std::string_view AsString() const {
    if (tag_ == kHeap) return {HeapData(), HeapSize()};
    return {bytes_, static_cast<size_t>(tag_ & kInlineSizeMask)};
  }

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

  // Approximate footprint for database-size accounting: 1 for NULL, 8 for a
  // number, and a string's length plus sizeof(std::string). Not the layout's
  // footprint: it feeds Database::ApproxByteSize, the SLA profiler's size
  // input to placement (the paper's Table 2), so a truthful figure would
  // move placement and is a decision of its own.
  size_t ByteSize() const;

  // Key suitable for building lock identifiers.
  std::string LockKey() const;

 private:
  // Tags. A string's tag is kInline plus its length, or kHeap.
  static constexpr uint8_t kNull = 0x00;
  static constexpr uint8_t kInt = 0x10;
  static constexpr uint8_t kDouble = 0x20;
  static constexpr uint8_t kInline = 0x30;
  static constexpr uint8_t kHeap = 0x40;
  static constexpr uint8_t kInlineSizeMask = 0x0F;
  static constexpr size_t kInlineCapacity = 15;

  char* HeapData() const {
    char* data;
    std::memcpy(&data, bytes_, sizeof data);
    return data;
  }
  uint32_t HeapSize() const {
    uint32_t size;
    std::memcpy(&size, bytes_ + sizeof(char*), sizeof size);
    return size;
  }

  // Sets this (NULL) Value to a copy of `v`.
  void AssignString(std::string_view v);
  // Sets this (NULL) Value to a copy of `other`.
  void CopyFrom(const Value& other) {
    if (other.tag_ == kHeap) {
      AssignString(other.AsString());
    } else {
      std::memcpy(bytes_, other.bytes_, sizeof bytes_);
      tag_ = other.tag_;
    }
  }
  // Sets this (NULL) Value to `other`'s contents and leaves `other` NULL.
  void TakeFrom(Value& other) {
    std::memcpy(bytes_, other.bytes_, sizeof bytes_);
    tag_ = other.tag_;
    other.tag_ = kNull;
  }
  void Release() {
    if (tag_ == kHeap) delete[] HeapData();
    tag_ = kNull;
  }

  // Every byte is always initialised, so a copy of an inline Value moves
  // all of them with one memcpy and never reads an indeterminate byte.
  alignas(8) char bytes_[kInlineCapacity] = {};
  uint8_t tag_ = kNull;
};

static_assert(sizeof(Value) == 16, "a Value is 16 bytes");

// A row is a flat vector of values, positionally matching a table schema.
using Row = std::vector<Value>;

}  // namespace mtdb

#endif  // MTDB_STORAGE_VALUE_H_
