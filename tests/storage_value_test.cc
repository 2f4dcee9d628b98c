#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/storage/encoding.h"
#include "src/storage/schema.h"
#include "src/storage/value.h"

namespace mtdb {
namespace {

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(int64_t{5}).is_int());
  EXPECT_TRUE(Value(3.14).is_double());
  EXPECT_TRUE(Value("abc").is_string());
  EXPECT_TRUE(Value(int64_t{5}).is_numeric());
  EXPECT_TRUE(Value(3.14).is_numeric());
  EXPECT_FALSE(Value("abc").is_numeric());
}

TEST(ValueTest, IntComparison) {
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_EQ(Value(int64_t{7}), Value(int64_t{7}));
  EXPECT_GT(Value(int64_t{9}), Value(int64_t{2}));
}

TEST(ValueTest, MixedNumericComparison) {
  EXPECT_EQ(Value(int64_t{2}), Value(2.0));
  EXPECT_LT(Value(1.5), Value(int64_t{2}));
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value("apple"), Value("banana"));
  EXPECT_EQ(Value("x"), Value("x"));
}

TEST(ValueTest, CrossTypeOrdering) {
  // NULL < numerics < strings (index total order).
  EXPECT_LT(Value(), Value(int64_t{0}));
  EXPECT_LT(Value(int64_t{999}), Value("a"));
}

TEST(ValueTest, ToStringQuotesAndEscapes) {
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value("it's").ToString(), "'it''s'");
  EXPECT_EQ(Value().ToString(), "NULL");
}

TEST(ValueTest, LockKeyDistinguishesTypes) {
  EXPECT_NE(Value(int64_t{1}).LockKey(), Value("1").LockKey());
  EXPECT_NE(Value().LockKey(), Value(int64_t{0}).LockKey());
}

TEST(ValueTest, LargeInt64PreservedExactly) {
  int64_t big = (int64_t{1} << 62) + 1;
  EXPECT_LT(Value(big), Value(big + 1));  // would fail under double coercion
}

// A Value keeps strings of up to 15 bytes inline and longer ones in a heap
// block; both must read back byte for byte.
const std::string k15(15, 'x');
const std::string k16(16, 'x');

// Same kind and same contents, byte for byte.
void ExpectSame(const Value& actual, const Value& expected) {
  EXPECT_EQ(actual.is_null(), expected.is_null());
  EXPECT_EQ(actual.is_int(), expected.is_int());
  EXPECT_EQ(actual.is_double(), expected.is_double());
  EXPECT_EQ(actual.is_string(), expected.is_string());
  EXPECT_EQ(actual.ToString(), expected.ToString());
  if (expected.is_string()) {
    EXPECT_EQ(actual.AsString(), expected.AsString());
  }
}

// One of every kind, and strings on both sides of the inline limit.
std::vector<Value> EveryKind() {
  return {Value(),
          Value(int64_t{-7}),
          Value(2.5),
          Value(""),
          Value("short"),
          Value(k15),
          Value(k16),
          Value(std::string(40, 'y'))};
}

TEST(ValueTest, StringsOnBothSidesOfTheInlineLimit) {
  for (size_t n : {0, 1, 14, 15, 16, 17, 100, 5000}) {
    std::string s(n, 'a');
    for (size_t i = 0; i < n; ++i) s[i] = static_cast<char>('a' + i % 26);
    Value v(s);
    ASSERT_TRUE(v.is_string()) << n;
    EXPECT_EQ(v.AsString().size(), n);
    EXPECT_EQ(v.AsString(), s);
    EXPECT_EQ(Value(std::string_view(s)).Compare(v), 0);
    EXPECT_EQ(Value(s.c_str()).Compare(v), 0);
  }
  // A 15-byte string orders before the 16-byte one it prefixes, and after
  // it when a shared position's byte decides.
  EXPECT_LT(Value(k15), Value(k16));
  EXPECT_GT(Value(std::string(14, 'x') + "y"), Value(k16));
  EXPECT_EQ(Value("").ToString(), "''");
  EXPECT_TRUE(Value("").AsString().empty());
  EXPECT_LT(Value(""), Value("a"));
  EXPECT_GT(Value(""), Value(int64_t{1}));
}

TEST(ValueTest, EmbeddedNulBytesAreOrdinaryBytes) {
  using namespace std::string_literals;
  std::string inline_nul = "a\0b"s;
  std::string heap_nul = "0123456789\0abcdef\0"s;
  ASSERT_EQ(heap_nul.size(), 18u);
  EXPECT_EQ(Value(inline_nul).AsString(), inline_nul);
  EXPECT_EQ(Value(heap_nul).AsString(), heap_nul);
  EXPECT_LT(Value("a"), Value("a\0"s));
  EXPECT_LT(Value("a\0b"s), Value("a\0c"s));
  EXPECT_NE(Value(inline_nul), Value("a"));
  EXPECT_EQ(Value(heap_nul).ToDisplayString(), heap_nul);
  // Construction from a const char* stops at its first NUL.
  EXPECT_EQ(Value(inline_nul.c_str()).AsString(), "a");
}

TEST(ValueTest, CopyAndMoveAcrossEveryPairOfKinds) {
  const std::vector<Value> kinds = EveryKind();
  for (const Value& from : kinds) {
    SCOPED_TRACE(from.ToString());
    Value copied(from);
    ExpectSame(copied, from);
    Value source(from);
    Value moved(std::move(source));
    ExpectSame(moved, from);
    EXPECT_TRUE(source.is_null());  // NOLINT(bugprone-use-after-move)

    Value self(from);
    Value& alias = self;
    self = alias;
    ExpectSame(self, from);
    self = std::move(alias);
    ExpectSame(self, from);

    for (const Value& onto : kinds) {
      SCOPED_TRACE(onto.ToString());
      Value copy_target(onto);
      copy_target = from;
      ExpectSame(copy_target, from);
      Value move_target(onto);
      Value move_source(from);
      move_target = std::move(move_source);
      ExpectSame(move_target, from);
      EXPECT_TRUE(move_source.is_null());  // NOLINT(bugprone-use-after-move)
    }
  }
  // Every copy taken from the originals left them as they were.
  const std::vector<Value> fresh = EveryKind();
  for (size_t i = 0; i < kinds.size(); ++i) ExpectSame(kinds[i], fresh[i]);
}

TEST(ValueTest, ComparisonLockKeyAndRenderingAcrossKinds) {
  std::string long_a(20, 'a');
  // NULL < numerics < strings; int/int exact, int/double as doubles.
  EXPECT_LT(Value(), Value(int64_t{-1}));
  EXPECT_LT(Value(), Value(-1.5));
  EXPECT_LT(Value(int64_t{1}), Value(1.5));
  EXPECT_EQ(Value(int64_t{2}).Compare(Value(2.0)), 0);
  EXPECT_LT(Value(1e300), Value(""));
  EXPECT_LT(Value(long_a), Value("b"));
  EXPECT_EQ(Value(long_a).Compare(Value(std::string(long_a))), 0);
  EXPECT_EQ(Value().Compare(Value()), 0);

  EXPECT_EQ(Value().LockKey(), "~null");
  EXPECT_EQ(Value(int64_t{42}).LockKey(), "i42");
  EXPECT_EQ(Value(1.5).LockKey(), "d1.500000");
  EXPECT_EQ(Value("ab").LockKey(), "sab");
  EXPECT_EQ(Value(long_a).LockKey(), "s" + long_a);

  EXPECT_EQ(Value(2.5).ToString(), "2.5");
  EXPECT_EQ(Value(long_a + "'").ToString(), "'" + long_a + "'''");
  EXPECT_EQ(Value(long_a).ToDisplayString(), long_a);
  EXPECT_EQ(Value(int64_t{-3}).ToDisplayString(), "-3");
  EXPECT_EQ(Value().ToDisplayString(), "NULL");
}

TEST(ValueTest, ByteSizeKeepsItsAccountingFigures) {
  EXPECT_EQ(Value().ByteSize(), 1u);
  EXPECT_EQ(Value(int64_t{1}).ByteSize(), 8u);
  EXPECT_EQ(Value(1.0).ByteSize(), 8u);
  EXPECT_EQ(Value("abc").ByteSize(), 3 + sizeof(std::string));
  EXPECT_EQ(Value(k16).ByteSize(), 16 + sizeof(std::string));
}

TEST(ValueTest, EncodingRoundTripsStringsByteForByte) {
  using namespace std::string_literals;
  // A string value is tag 3, a u32 little-endian length, then the bytes.
  std::string encoded;
  encoding::AppendValue(&encoded, Value("ab"));
  EXPECT_EQ(encoded, "\x03\x02\x00\x00\x00"s "ab");

  for (const std::string& s :
       {""s, "ab"s, k15, k16, "\0nul\0"s, std::string(20, '\0'),
        std::string(300, 'z')}) {
    std::string bytes;
    encoding::AppendValue(&bytes, Value(s));
    EXPECT_EQ(bytes.size(), 1 + 4 + s.size());
    encoding::Reader reader(bytes);
    Value back = reader.ReadValue();
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.remaining(), 0u);
    ASSERT_TRUE(back.is_string());
    EXPECT_EQ(back.AsString(), s);
  }
  // A truncated string fails the read, never the process.
  std::string truncated;
  encoding::AppendValue(&truncated, Value(k16));
  truncated.pop_back();
  encoding::Reader reader(truncated);
  reader.ReadValue();
  EXPECT_FALSE(reader.ok());
}

TEST(SchemaTest, ColumnIndexLookup) {
  TableSchema schema("t",
                     {{"id", ColumnType::kInt64, true},
                      {"name", ColumnType::kString, false}},
                     0);
  EXPECT_EQ(schema.ColumnIndex("id"), 0);
  EXPECT_EQ(schema.ColumnIndex("name"), 1);
  EXPECT_EQ(schema.ColumnIndex("zzz"), -1);
}

TEST(SchemaTest, ValidateRowArity) {
  TableSchema schema("t", {{"id", ColumnType::kInt64, true}}, 0);
  EXPECT_TRUE(schema.ValidateRow({Value(int64_t{1})}).ok());
  EXPECT_FALSE(schema.ValidateRow({Value(int64_t{1}), Value(int64_t{2})}).ok());
}

TEST(SchemaTest, ValidateRowTypes) {
  TableSchema schema("t",
                     {{"id", ColumnType::kInt64, true},
                      {"price", ColumnType::kDouble, false},
                      {"name", ColumnType::kString, false}},
                     0);
  EXPECT_TRUE(schema
                  .ValidateRow({Value(int64_t{1}), Value(9.5), Value("book")})
                  .ok());
  // Int accepted where double expected.
  EXPECT_TRUE(schema
                  .ValidateRow(
                      {Value(int64_t{1}), Value(int64_t{9}), Value("book")})
                  .ok());
  // String where int expected.
  EXPECT_FALSE(
      schema.ValidateRow({Value("x"), Value(9.5), Value("book")}).ok());
}

TEST(SchemaTest, NullRejectedInPrimaryKeyAndNotNull) {
  TableSchema schema("t",
                     {{"id", ColumnType::kInt64, false},
                      {"req", ColumnType::kString, true},
                      {"opt", ColumnType::kString, false}},
                     0);
  EXPECT_FALSE(schema.ValidateRow({Value(), Value("a"), Value("b")}).ok());
  EXPECT_FALSE(
      schema.ValidateRow({Value(int64_t{1}), Value(), Value("b")}).ok());
  EXPECT_TRUE(
      schema.ValidateRow({Value(int64_t{1}), Value("a"), Value()}).ok());
}

TEST(SchemaTest, AddIndexValidation) {
  TableSchema schema("t",
                     {{"id", ColumnType::kInt64, true},
                      {"cat", ColumnType::kString, false}},
                     0);
  EXPECT_TRUE(schema.AddIndex("idx_cat", "cat").ok());
  EXPECT_EQ(schema.AddIndex("idx_cat", "cat").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(schema.AddIndex("idx_bad", "nope").code(),
            StatusCode::kInvalidArgument);
  ASSERT_NE(schema.IndexOnColumn(1), nullptr);
  EXPECT_EQ(schema.IndexOnColumn(1)->name, "idx_cat");
  EXPECT_EQ(schema.IndexOnColumn(0), nullptr);
}

}  // namespace
}  // namespace mtdb
