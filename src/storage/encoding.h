#ifndef MTDB_STORAGE_ENCODING_H_
#define MTDB_STORAGE_ENCODING_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/storage/schema.h"
#include "src/storage/value.h"

// The one binary encoding of values, rows and schemas (DESIGN.md §8, §15):
// the RPC codec builds its frames from it and the WAL its records.
//
// Integers are fixed-width little-endian; strings and repeated fields are
// u32-count-prefixed; a value is a u8 type tag followed by 8 bytes (INT64,
// DOUBLE), a string (STRING) or nothing (NULL). Reading is bounds-checked:
// truncated input, an unknown tag or a schema that names no real column
// fails the read, never the process.
namespace mtdb::encoding {

inline void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void AppendU32(std::string* out, uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out->append(bytes, sizeof(bytes));
}

inline void AppendU64(std::string* out, uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out->append(bytes, sizeof(bytes));
}

inline void AppendString(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// A u32-length-prefixed frame, as RPC messages and WAL records are written:
// BeginFrame appends the length placeholder and returns its offset, and
// EndFrame patches in the length of everything appended after it and
// returns that length.
inline size_t BeginFrame(std::string* out) {
  size_t start = out->size();
  AppendU32(out, 0);
  return start;
}

inline uint32_t EndFrame(std::string* out, size_t start) {
  uint32_t length = static_cast<uint32_t>(out->size() - start - 4);
  for (int i = 0; i < 4; ++i) {
    (*out)[start + i] = static_cast<char>(length >> (8 * i));
  }
  return length;
}

void AppendValue(std::string* out, const Value& value);
void AppendRow(std::string* out, const Row& row);
void AppendSchema(std::string* out, const TableSchema& schema);

// Bounds-checked reader over encoded bytes. After the first failed read
// every later read fails too, so a decoder reads unconditionally and checks
// ok() once at the end.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size(); }

  uint8_t ReadU8() {
    if (!Require(1)) return 0;
    uint8_t v = static_cast<uint8_t>(data_[0]);
    data_.remove_prefix(1);
    return v;
  }

  uint32_t ReadU32() {
    if (!Require(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[i])) << (8 * i);
    }
    data_.remove_prefix(4);
    return v;
  }

  uint64_t ReadU64() {
    if (!Require(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[i])) << (8 * i);
    }
    data_.remove_prefix(8);
    return v;
  }

  // The next n bytes, as a view into the input.
  std::string_view ReadBytes(size_t n) {
    if (!Require(n)) return {};
    std::string_view bytes = data_.substr(0, n);
    data_.remove_prefix(n);
    return bytes;
  }

  std::string ReadString() { return std::string(ReadBytes(ReadU32())); }

  // Reads a u32 element count, bounded by the bytes actually remaining so a
  // corrupt count cannot trigger a huge allocation (every element encodes to
  // at least one byte).
  uint32_t ReadCount() {
    uint32_t n = ReadU32();
    if (n > remaining()) ok_ = false;
    return ok_ ? n : 0;
  }

  Value ReadValue();
  Row ReadRow();
  // Fails the read unless every column has a known type, the primary key
  // names a column and every index names a column under a name of its own.
  TableSchema ReadSchema();

 private:
  bool Require(size_t n) {
    if (!ok_ || data_.size() < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  bool ok_ = true;
};

}  // namespace mtdb::encoding

#endif  // MTDB_STORAGE_ENCODING_H_
