// Round-trip and robustness tests for the net wire codec (DESIGN.md §8).
//
// The decoder's contract: any byte string either decodes to exactly the
// message that was encoded, or yields an error Status — never a crash, hang,
// or silently partial message. The truncation tests enforce that for every
// strict prefix of every frame produced here (a cheap deterministic stand-in
// for a fuzzer), and the trailing-byte tests for every one-byte extension.

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/codec.h"
#include "src/net/message.h"
#include "src/storage/dump.h"

namespace mtdb::net {
namespace {

// --- helpers ---

std::string_view PayloadOf(const std::string& frame) {
  size_t frame_size = 0;
  Status error;
  auto payload = ExtractFrame(frame, &frame_size, &error);
  EXPECT_TRUE(payload.has_value()) << error.ToString();
  EXPECT_EQ(frame_size, frame.size());
  return *payload;
}

RpcRequest RoundTripRequest(const RpcRequest& request) {
  std::string frame;
  EncodeRequestFrame(request, &frame);
  auto decoded = DecodeRequest(PayloadOf(frame));
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return std::move(*decoded);
}

RpcResponse RoundTripResponse(const RpcResponse& response) {
  std::string frame;
  EncodeResponseFrame(response, &frame);
  auto decoded = DecodeResponse(PayloadOf(frame));
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return std::move(*decoded);
}

// Every strict prefix of the payload must fail to decode; every one-byte
// extension must be rejected for trailing garbage.
template <typename DecodeFn>
void ExpectPrefixAndSuffixRejected(const std::string& frame, DecodeFn decode) {
  std::string payload(PayloadOf(frame));
  for (size_t len = 0; len < payload.size(); ++len) {
    auto result = decode(std::string_view(payload.data(), len));
    EXPECT_FALSE(result.ok()) << "prefix of length " << len << " decoded";
  }
  std::string extended = payload + '\0';
  EXPECT_FALSE(decode(extended).ok()) << "trailing byte accepted";
}

TableSchema ItemSchema() {
  TableSchema schema("item",
                     {{"i_id", ColumnType::kInt64, true},
                      {"i_title", ColumnType::kString, false},
                      {"i_cost", ColumnType::kDouble, false}},
                     /*primary_key_index=*/0);
  EXPECT_TRUE(schema.AddIndex("idx_title", "i_title").ok());
  return schema;
}

// A copy of a two-row table as a dump reply carries it: log records.
std::vector<std::string> MakeCopyRecords() {
  TableDump dump;
  dump.schema = ItemSchema();
  dump.rows.push_back({{Value(int64_t{1}), Value("book"), Value(9.5)}, 3});
  dump.rows.push_back({{Value(int64_t{2}), Value::Null(), Value::Null()}, 7});
  std::vector<std::string> records;
  AppendCopyRecords("shop", std::move(dump), &records);
  return records;
}

// The copy MakeCopyRecords encodes, read back from its records.
void ExpectTheCopy(const std::vector<std::string>& records) {
  ASSERT_EQ(records.size(), 3u);
  auto create = WriteAheadLog::Decode(records[0]);
  ASSERT_TRUE(create.ok()) << create.status().ToString();
  EXPECT_EQ(create->type, WalRecordType::kCreateTable);
  EXPECT_EQ(create->database, "shop");
  const TableSchema& schema = create->schema;
  EXPECT_EQ(schema.name(), "item");
  ASSERT_EQ(schema.num_columns(), 3u);
  EXPECT_EQ(schema.columns()[2].name, "i_cost");
  EXPECT_EQ(schema.columns()[2].type, ColumnType::kDouble);
  EXPECT_TRUE(schema.columns()[0].not_null);
  EXPECT_EQ(schema.primary_key_index(), 0);
  ASSERT_EQ(schema.indexes().size(), 1u);
  EXPECT_EQ(schema.indexes()[0].name, "idx_title");
  EXPECT_EQ(schema.indexes()[0].column_index, 1);
  const Row rows[] = {{Value(int64_t{1}), Value("book"), Value(9.5)},
                      {Value(int64_t{2}), Value::Null(), Value::Null()}};
  for (int i = 0; i < 2; ++i) {
    auto insert = WriteAheadLog::Decode(records[i + 1]);
    ASSERT_TRUE(insert.ok()) << insert.status().ToString();
    EXPECT_EQ(insert->type, WalRecordType::kInsert);
    EXPECT_EQ(insert->txn_id, 0u) << "copies are bulk pseudo-transaction 0";
    EXPECT_EQ(insert->table, "item");
    EXPECT_EQ(insert->primary_key, rows[i][0]);
    EXPECT_EQ(insert->row, rows[i]);
  }
}

// --- request round trips ---

TEST(NetCodecTest, ExecuteRequestRoundTripsAllValueKinds) {
  RpcRequest request;
  request.type = RpcType::kExecute;
  request.txn_id = 0xDEADBEEFCAFEull;
  request.db_name = "tenant-42";
  request.sql = "UPDATE item SET i_stock = ? WHERE i_id = ? AND i_title = ?";
  request.params = {Value(int64_t{-17}), Value::Null(), Value("O'Reilly \" \0x"),
                    Value(2.5), Value(std::numeric_limits<int64_t>::min()),
                    Value(std::string("\x00\xff\x7f", 3)), Value(-0.0),
                    Value(std::numeric_limits<double>::infinity())};
  request.debug_delay_us = 1234;

  RpcRequest out = RoundTripRequest(request);
  EXPECT_EQ(out.type, RpcType::kExecute);
  EXPECT_EQ(out.txn_id, request.txn_id);
  EXPECT_EQ(out.db_name, request.db_name);
  EXPECT_EQ(out.sql, request.sql);
  ASSERT_EQ(out.params.size(), request.params.size());
  for (size_t i = 0; i < request.params.size(); ++i) {
    EXPECT_EQ(out.params[i], request.params[i]) << "param " << i;
    EXPECT_EQ(out.params[i].is_null(), request.params[i].is_null());
    EXPECT_EQ(out.params[i].is_int(), request.params[i].is_int());
    EXPECT_EQ(out.params[i].is_double(), request.params[i].is_double());
    EXPECT_EQ(out.params[i].is_string(), request.params[i].is_string());
  }
  EXPECT_EQ(out.debug_delay_us, request.debug_delay_us);
}

TEST(NetCodecTest, EveryRequestTypeRoundTrips) {
  for (int raw = 1; raw < kRpcTypeLimit; ++raw) {
    if (!IsLiveRpcType(raw)) continue;
    RpcRequest request;
    request.type = static_cast<RpcType>(raw);
    request.txn_id = static_cast<uint64_t>(raw) << 40;
    request.db_name = "db" + std::to_string(raw);
    request.table = "t" + std::to_string(raw);
    request.sql = "SELECT " + std::to_string(raw);
    request.per_row_delay_us = raw * 11;
    request.debug_delay_us = raw * 7;
    request.trace_id = static_cast<uint64_t>(raw) * 999'983;
    RpcRequest out = RoundTripRequest(request);
    EXPECT_EQ(out.type, request.type) << RpcTypeName(request.type);
    EXPECT_EQ(out.txn_id, request.txn_id);
    EXPECT_EQ(out.db_name, request.db_name);
    EXPECT_EQ(out.table, request.table);
    EXPECT_EQ(out.sql, request.sql);
    EXPECT_EQ(out.per_row_delay_us, request.per_row_delay_us);
    EXPECT_EQ(out.debug_delay_us, request.debug_delay_us);
    EXPECT_EQ(out.trace_id, request.trace_id);
  }
}

TEST(NetCodecTest, RetiredStatementHandleTypesAreRejected) {
  // Wire numbers 19 (PrepareStatement) and 20 (ExecutePrepared) carried the
  // removed statement-handle RPCs. A frame naming either must not decode.
  for (RpcType retired :
       {RpcType::kPrepareStatement, RpcType::kExecutePrepared}) {
    EXPECT_FALSE(IsLiveRpcType(static_cast<int>(retired)));
    RpcRequest request;
    request.type = retired;
    request.db_name = "shop";
    request.sql = "SELECT i_title FROM item WHERE i_id = ?";
    request.params = {Value(int64_t{4})};
    std::string frame;
    EncodeRequestFrame(request, &frame);
    auto decoded = DecodeRequest(PayloadOf(frame));
    EXPECT_FALSE(decoded.ok()) << RpcTypeName(retired) << " decoded";
  }
}

TEST(NetCodecTest, BulkLoadRequestCarriesRows) {
  RpcRequest request;
  request.type = RpcType::kBulkLoad;
  request.db_name = "shop";
  request.table = "item";
  for (int64_t i = 0; i < 100; ++i) {
    request.rows.push_back({Value(i), Value("row-" + std::to_string(i)),
                            i % 3 == 0 ? Value::Null() : Value(i * 0.5)});
  }
  RpcRequest out = RoundTripRequest(request);
  ASSERT_EQ(out.rows.size(), request.rows.size());
  for (size_t i = 0; i < request.rows.size(); ++i) {
    EXPECT_EQ(out.rows[i], request.rows[i]) << "row " << i;
  }
}

TEST(NetCodecTest, ApplyRecordsRequestCarriesRecords) {
  RpcRequest request;
  request.type = RpcType::kApplyRecords;
  request.db_name = "shop";
  request.records = MakeCopyRecords();
  request.records.push_back(std::string("a\0b", 3));  // opaque bytes
  RpcRequest out = RoundTripRequest(request);
  EXPECT_EQ(out.type, RpcType::kApplyRecords);
  EXPECT_EQ(out.records, request.records);
  out.records.pop_back();
  ExpectTheCopy(out.records);
}

TEST(NetCodecTest, RetiredDumpInstallTypeIsRejected) {
  // Wire number 15 installed a table dump, the second copy format; copies
  // now install through kApplyRecords alone.
  EXPECT_FALSE(IsLiveRpcType(15));
  RpcRequest request;
  request.type = static_cast<RpcType>(15);
  request.db_name = "shop";
  std::string frame;
  EncodeRequestFrame(request, &frame);
  EXPECT_FALSE(DecodeRequest(PayloadOf(frame)).ok());
}

TEST(NetCodecTest, SchemaNamingNoRealColumnIsRejected) {
  // Schemas travel inside kCreateTable records, which the copy target
  // decodes before it replays them.
  auto decodes = [](const TableSchema& schema) {
    return WriteAheadLog::Decode(
               WriteAheadLog::Encode({.type = WalRecordType::kCreateTable,
                                      .database = "shop",
                                      .schema = schema}))
        .ok();
  };
  ASSERT_TRUE(decodes(ItemSchema()));
  // A key column past the end of a one-column table.
  EXPECT_FALSE(
      decodes(TableSchema("t", {{"id", ColumnType::kInt64, true}}, /*pk=*/5)))
      << "primary key naming column 5 of 1 decoded";
  // No columns, so no key column.
  EXPECT_FALSE(decodes(TableSchema())) << "schema without a key decoded";

  // An index on a column past the end: the index's u32 column number
  // follows its name.
  std::string record =
      WriteAheadLog::Encode({.type = WalRecordType::kCreateTable,
                             .database = "shop",
                             .schema = ItemSchema()});
  size_t at = record.find("idx_title");
  ASSERT_NE(at, std::string::npos);
  record[at + 9] = static_cast<char>(0x7f);
  EXPECT_FALSE(WriteAheadLog::Decode(record).ok())
      << "index on column 127 of 3 decoded";
}

// --- response round trips ---

TEST(NetCodecTest, EveryStatusCodeRoundTrips) {
  for (int raw = 0; raw <= static_cast<int>(StatusCode::kResourceExhausted);
       ++raw) {
    RpcResponse response;
    response.code = static_cast<StatusCode>(raw);
    response.message = raw == 0 ? "" : "error " + std::to_string(raw);
    RpcResponse out = RoundTripResponse(response);
    EXPECT_EQ(out.code, response.code);
    EXPECT_EQ(out.message, response.message);
  }
}

TEST(NetCodecTest, QueryResultRoundTripsIncludingEmpty) {
  RpcResponse empty;
  empty.result.columns = {"a", "b"};
  empty.result.affected_rows = 0;
  RpcResponse out = RoundTripResponse(empty);
  EXPECT_EQ(out.result.columns, empty.result.columns);
  EXPECT_TRUE(out.result.rows.empty());

  RpcResponse full;
  full.result.columns = {"i_id", "i_title", "i_cost"};
  full.result.affected_rows = 2;
  full.result.rows.push_back({Value(int64_t{1}), Value("x"), Value(1.25)});
  full.result.rows.push_back({Value::Null(), Value::Null(), Value::Null()});
  out = RoundTripResponse(full);
  EXPECT_EQ(out.result.columns, full.result.columns);
  EXPECT_EQ(out.result.affected_rows, full.result.affected_rows);
  ASSERT_EQ(out.result.rows.size(), full.result.rows.size());
  for (size_t i = 0; i < full.result.rows.size(); ++i) {
    EXPECT_EQ(out.result.rows[i], full.result.rows[i]);
  }
}

TEST(NetCodecTest, LargeRowsRoundTrip) {
  RpcResponse response;
  response.result.columns = {"blob"};
  std::string big(1 << 20, 'x');  // 1 MiB value
  for (int i = 0; i < 8; ++i) {
    big[static_cast<size_t>(i) * 1000] = static_cast<char>(i);
    response.result.rows.push_back({Value(big)});
  }
  RpcResponse out = RoundTripResponse(response);
  ASSERT_EQ(out.result.rows.size(), response.result.rows.size());
  EXPECT_EQ(out.result.rows.back()[0].AsString(), big);
}

TEST(NetCodecTest, DumpsTxnIdsAndNamesRoundTrip) {
  // A dump reply carries the copy as log records.
  RpcResponse dump;
  dump.records = MakeCopyRecords();
  RpcResponse out = RoundTripResponse(dump);
  EXPECT_EQ(out.records, dump.records);
  ExpectTheCopy(out.records);
  std::string frame;
  EncodeResponseFrame(dump, &frame);
  ExpectPrefixAndSuffixRejected(
      frame, [](std::string_view payload) { return DecodeResponse(payload); });

  RpcResponse response;
  response.txn_ids = {1, 0xFFFFFFFFFFFFFFFFull, 42};
  response.names = {"item", "orders", ""};
  out = RoundTripResponse(response);
  EXPECT_TRUE(out.records.empty());
  EXPECT_EQ(out.txn_ids, response.txn_ids);
  EXPECT_EQ(out.names, response.names);
}

TEST(NetCodecTest, ServerDurationRoundTrips) {
  RpcResponse response;
  response.server_duration_us = 123'456;
  EXPECT_EQ(RoundTripResponse(response).server_duration_us, 123'456);
  // The "no reply measured" sentinel survives the u64 cast on the wire.
  response.server_duration_us = -1;
  EXPECT_EQ(RoundTripResponse(response).server_duration_us, -1);
}

TEST(NetCodecTest, RetryAfterRoundTrips) {
  // The QoS throttle hint rides every response (0 = no hint), exactly like
  // server_duration_us: always encoded, required at decode.
  RpcResponse response;
  response.code = StatusCode::kResourceExhausted;
  response.message = "tenant over admission quota";
  response.retry_after_us = 37'500;
  RpcResponse out = RoundTripResponse(response);
  EXPECT_EQ(out.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(out.retry_after_us, 37'500);

  RpcResponse unthrottled;
  EXPECT_EQ(RoundTripResponse(unthrottled).retry_after_us, 0);
}

TEST(NetCodecTest, BeginReadOnlyFlagRoundTrips) {
  // The MVCC snapshot flag rides every request (like trace_id): BEGIN uses
  // it, everything else carries it as false.
  RpcRequest begin_ro;
  begin_ro.type = RpcType::kBegin;
  begin_ro.txn_id = 310;
  begin_ro.db_name = "shop";
  begin_ro.read_only = true;
  RpcRequest out = RoundTripRequest(begin_ro);
  EXPECT_EQ(out.type, RpcType::kBegin);
  EXPECT_TRUE(out.read_only);

  begin_ro.read_only = false;
  EXPECT_FALSE(RoundTripRequest(begin_ro).read_only);

  RpcRequest execute;
  execute.type = RpcType::kExecute;
  execute.sql = "SELECT 1";
  EXPECT_FALSE(RoundTripRequest(execute).read_only);
}

TEST(NetCodecTest, BeginRoundTripsAndTheHintIsNotEncoded) {
  // A read that starts its transaction carries `begin` (and read_only) on
  // the wire.
  RpcRequest execute;
  execute.type = RpcType::kExecute;
  execute.txn_id = 311;
  execute.db_name = "shop";
  execute.sql = "SELECT 1";
  execute.begin = true;
  execute.read_only = true;
  RpcRequest out = RoundTripRequest(execute);
  EXPECT_TRUE(out.begin);
  EXPECT_TRUE(out.read_only);
  execute.begin = false;
  EXPECT_FALSE(RoundTripRequest(execute).begin);

  // may_run_inline stays on the caller's side: the frame bytes do not change.
  std::string plain;
  EncodeRequestFrame(execute, &plain);
  execute.may_run_inline = true;
  std::string hinted;
  EncodeRequestFrame(execute, &hinted);
  EXPECT_EQ(plain, hinted);
  EXPECT_FALSE(RoundTripRequest(execute).may_run_inline);
}

TEST(NetCodecTest, SnapshotTimestampRoundTrips) {
  // BEGIN responses for read-only transactions return the snapshot
  // timestamp; every other response carries the 0 sentinel.
  RpcResponse response;
  response.snapshot_ts = 0xFEEDFACE12345678ull;
  EXPECT_EQ(RoundTripResponse(response).snapshot_ts, 0xFEEDFACE12345678ull);

  RpcResponse plain;
  EXPECT_EQ(RoundTripResponse(plain).snapshot_ts, 0u);
}

TEST(NetCodecTest, PreMvccWireFormatIsRejected) {
  // Frames produced by the previous wire format — identical except for the
  // trailing read_only byte (requests) / snapshot_ts u64 (responses) — must
  // fail to decode as "truncated", not silently default the missing field.
  RpcRequest request;
  request.type = RpcType::kBegin;
  request.txn_id = 11;
  request.db_name = "shop";
  request.read_only = true;
  std::string frame;
  EncodeRequestFrame(request, &frame);
  std::string payload(PayloadOf(frame));
  ASSERT_GT(payload.size(), 1u);
  auto old_request = DecodeRequest(
      std::string_view(payload.data(), payload.size() - 1));
  EXPECT_FALSE(old_request.ok()) << "request without read_only byte decoded";

  RpcResponse response;
  response.snapshot_ts = 42;
  std::string response_frame;
  EncodeResponseFrame(response, &response_frame);
  std::string response_payload(PayloadOf(response_frame));
  ASSERT_GT(response_payload.size(), 8u);
  auto old_response = DecodeResponse(std::string_view(
      response_payload.data(), response_payload.size() - 8));
  EXPECT_FALSE(old_response.ok())
      << "response without snapshot_ts field decoded";
}

// --- robustness ---

TEST(NetCodecTest, TruncatedRequestPayloadsAreRejected) {
  RpcRequest request;
  request.type = RpcType::kBulkLoad;
  request.txn_id = 99;
  request.db_name = "shop";
  request.table = "item";
  request.sql = "unused";
  request.params = {Value(int64_t{5}), Value("s")};
  request.rows = {{Value(int64_t{1}), Value("r")}};
  request.records = MakeCopyRecords();
  request.read_only = true;  // trailing u8: every prefix must fail
  std::string frame;
  EncodeRequestFrame(request, &frame);
  ExpectPrefixAndSuffixRejected(
      frame, [](std::string_view payload) { return DecodeRequest(payload); });
}

TEST(NetCodecTest, TruncatedResponsePayloadsAreRejected) {
  RpcResponse response;
  response.code = StatusCode::kAborted;
  response.message = "deadlock victim";
  response.result.columns = {"a"};
  response.result.rows = {{Value(int64_t{1})}, {Value::Null()}};
  response.records = MakeCopyRecords();
  response.txn_ids = {7, 8};
  response.names = {"item"};
  response.retry_after_us = 12'345;
  response.snapshot_ts = 6'789;  // trailing u64: every prefix must fail
  std::string frame;
  EncodeResponseFrame(response, &frame);
  ExpectPrefixAndSuffixRejected(
      frame, [](std::string_view payload) { return DecodeResponse(payload); });
}

TEST(NetCodecTest, IncompleteFramesWaitForMoreBytes) {
  RpcRequest request;
  request.type = RpcType::kHealth;
  std::string frame;
  EncodeRequestFrame(request, &frame);
  for (size_t len = 0; len < frame.size(); ++len) {
    size_t frame_size = 0;
    Status error;
    auto payload =
        ExtractFrame(std::string_view(frame.data(), len), &frame_size, &error);
    EXPECT_FALSE(payload.has_value()) << "prefix of length " << len;
    EXPECT_TRUE(error.ok());
  }
}

TEST(NetCodecTest, OversizedFrameLengthIsCorrupt) {
  std::string buffer(4, '\0');
  uint32_t huge = kMaxFrameBytes + 1;
  std::memcpy(buffer.data(), &huge, sizeof(huge));
  buffer += "xxxx";
  size_t frame_size = 0;
  Status error;
  auto payload = ExtractFrame(buffer, &frame_size, &error);
  EXPECT_FALSE(payload.has_value());
  EXPECT_FALSE(error.ok());
}

TEST(NetCodecTest, WrongDirectionTagAndBadEnumsAreRejected) {
  RpcRequest request;
  request.type = RpcType::kHealth;
  std::string frame;
  EncodeRequestFrame(request, &frame);
  std::string payload(PayloadOf(frame));
  // A request payload is not a response payload.
  EXPECT_FALSE(DecodeResponse(payload).ok());
  // Corrupt the RpcType byte (payload[1]) to an out-of-range value.
  std::string bad_type = payload;
  bad_type[1] = static_cast<char>(0x7F);
  EXPECT_FALSE(DecodeRequest(bad_type).ok());
  // Corrupt the direction tag.
  std::string bad_tag = payload;
  bad_tag[0] = static_cast<char>(0x55);
  EXPECT_FALSE(DecodeRequest(bad_tag).ok());
}

}  // namespace
}  // namespace mtdb::net
