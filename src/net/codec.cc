#include "src/net/codec.h"

#include "src/obs/metrics.h"
#include "src/storage/encoding.h"

namespace mtdb::net {

namespace {

using encoding::AppendRow;
using encoding::BeginFrame;
using encoding::EndFrame;
using encoding::AppendString;
using encoding::AppendU32;
using encoding::AppendU64;
using encoding::AppendU8;
using encoding::AppendValue;
using encoding::Reader;

// Payload tags distinguishing the two message directions.
constexpr uint8_t kRequestTag = 0xA1;
constexpr uint8_t kResponseTag = 0xA2;

// A u32-count-prefixed list of strings.
void AppendStrings(std::string* out, const std::vector<std::string>& strings) {
  AppendU32(out, static_cast<uint32_t>(strings.size()));
  for (const std::string& s : strings) AppendString(out, s);
}

std::vector<std::string> ReadStrings(Reader* in) {
  std::vector<std::string> strings;
  uint32_t count = in->ReadCount();
  strings.reserve(count);
  for (uint32_t i = 0; i < count && in->ok(); ++i) {
    strings.push_back(in->ReadString());
  }
  return strings;
}

void AppendQueryResult(std::string* out, const sql::QueryResult& result) {
  AppendStrings(out, result.columns);
  AppendU32(out, static_cast<uint32_t>(result.rows.size()));
  for (const Row& row : result.rows) AppendRow(out, row);
  AppendU64(out, static_cast<uint64_t>(result.affected_rows));
}

sql::QueryResult ReadQueryResult(Reader* in) {
  sql::QueryResult result;
  result.columns = ReadStrings(in);
  uint32_t rows = in->ReadCount();
  result.rows.reserve(rows);
  for (uint32_t i = 0; i < rows && in->ok(); ++i) {
    result.rows.push_back(in->ReadRow());
  }
  result.affected_rows = static_cast<int64_t>(in->ReadU64());
  return result;
}

}  // namespace

std::string_view RpcTypeName(RpcType type) {
  switch (type) {
    case RpcType::kHealth: return "Health";
    case RpcType::kBegin: return "Begin";
    case RpcType::kExecute: return "Execute";
    case RpcType::kPrepare: return "Prepare";
    case RpcType::kCommit: return "Commit";
    case RpcType::kCommitPrepared: return "CommitPrepared";
    case RpcType::kAbort: return "Abort";
    case RpcType::kCreateDatabase: return "CreateDatabase";
    case RpcType::kDropDatabase: return "DropDatabase";
    case RpcType::kHasDatabase: return "HasDatabase";
    case RpcType::kExecuteDdl: return "ExecuteDdl";
    case RpcType::kBulkLoad: return "BulkLoad";
    case RpcType::kDumpTable: return "DumpTable";
    case RpcType::kDumpDatabase: return "DumpDatabase";
    case RpcType::kListPrepared: return "ListPrepared";
    case RpcType::kListActive: return "ListActive";
    case RpcType::kListTables: return "ListTables";
    case RpcType::kPrepareStatement: return "PrepareStatement";
    case RpcType::kExecutePrepared: return "ExecutePrepared";
    case RpcType::kStats: return "Stats";
    case RpcType::kSetQuota: return "SetQuota";
    case RpcType::kWalDeltaRead: return "WalDeltaRead";
    case RpcType::kApplyRecords: return "ApplyRecords";
  }
  return "?";
}

namespace {

// Per-type request byte counters, resolved once. Encoding is the one place
// that sees every outbound request regardless of transport.
obs::Counter* RequestBytesCounter(RpcType type) {
  static obs::Counter** counters = [] {
    auto** array = new obs::Counter*[kRpcTypeLimit]();
    for (int i = 1; i < kRpcTypeLimit; ++i) {
      if (!IsLiveRpcType(i)) continue;
      array[i] = obs::MetricsRegistry::Global().GetCounter(
          "mtdb_rpc_request_bytes_total",
          {.operation = std::string(RpcTypeName(static_cast<RpcType>(i)))});
    }
    return array;
  }();
  int index = static_cast<int>(type);
  return index > 0 && index < kRpcTypeLimit ? counters[index] : nullptr;
}

obs::Counter* ResponseBytesCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "mtdb_rpc_response_bytes_total", {});
  return counter;
}

}  // namespace

void EncodeRequestFrame(const RpcRequest& request, std::string* out) {
  size_t frame = BeginFrame(out);
  AppendU8(out, kRequestTag);
  AppendU8(out, static_cast<uint8_t>(request.type));
  AppendU64(out, request.txn_id);
  AppendString(out, request.db_name);
  AppendString(out, request.table);
  AppendString(out, request.sql);
  AppendU32(out, static_cast<uint32_t>(request.params.size()));
  for (const Value& v : request.params) AppendValue(out, v);
  AppendU32(out, static_cast<uint32_t>(request.rows.size()));
  for (const Row& row : request.rows) AppendRow(out, row);
  AppendU64(out, static_cast<uint64_t>(request.per_row_delay_us));
  AppendU64(out, static_cast<uint64_t>(request.debug_delay_us));
  AppendU64(out, request.trace_id);
  AppendU8(out, request.read_only ? 1 : 0);
  AppendU64(out, request.wal_cursor);
  AppendStrings(out, request.records);
  AppendU8(out, request.begin ? 1 : 0);
  uint32_t payload = EndFrame(out, frame);
  obs::Increment(RequestBytesCounter(request.type),
                 static_cast<int64_t>(payload) + 4);
}

void EncodeResponseFrame(const RpcResponse& response, std::string* out) {
  size_t frame = BeginFrame(out);
  AppendU8(out, kResponseTag);
  AppendU8(out, static_cast<uint8_t>(response.code));
  AppendString(out, response.message);
  AppendQueryResult(out, response.result);
  AppendStrings(out, response.records);
  AppendU32(out, static_cast<uint32_t>(response.txn_ids.size()));
  for (uint64_t id : response.txn_ids) AppendU64(out, id);
  AppendStrings(out, response.names);
  AppendU64(out, static_cast<uint64_t>(response.server_duration_us));
  AppendU64(out, static_cast<uint64_t>(response.retry_after_us));
  AppendU64(out, response.snapshot_ts);
  AppendU64(out, response.wal_lsn);
  uint32_t payload = EndFrame(out, frame);
  obs::Increment(ResponseBytesCounter(), static_cast<int64_t>(payload) + 4);
}

std::optional<std::string_view> ExtractFrame(std::string_view buffer,
                                             size_t* frame_size,
                                             Status* error) {
  *error = Status::OK();
  if (buffer.size() < 4) return std::nullopt;
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(buffer[i])) << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    *error = Status::InvalidArgument("frame length " + std::to_string(len) +
                                     " exceeds limit");
    return std::nullopt;
  }
  if (buffer.size() < 4 + static_cast<size_t>(len)) return std::nullopt;
  *frame_size = 4 + static_cast<size_t>(len);
  return buffer.substr(4, len);
}

Result<RpcRequest> DecodeRequest(std::string_view payload) {
  Reader in(payload);
  if (in.ReadU8() != kRequestTag) {
    return Status::InvalidArgument("not a request frame");
  }
  RpcRequest request;
  uint8_t type = in.ReadU8();
  if (!IsLiveRpcType(type)) {
    return Status::InvalidArgument("unknown request type " +
                                   std::to_string(type));
  }
  request.type = static_cast<RpcType>(type);
  request.txn_id = in.ReadU64();
  request.db_name = in.ReadString();
  request.table = in.ReadString();
  request.sql = in.ReadString();
  uint32_t params = in.ReadCount();
  request.params.reserve(params);
  for (uint32_t i = 0; i < params && in.ok(); ++i) {
    request.params.push_back(in.ReadValue());
  }
  uint32_t rows = in.ReadCount();
  request.rows.reserve(rows);
  for (uint32_t i = 0; i < rows && in.ok(); ++i) {
    request.rows.push_back(in.ReadRow());
  }
  request.per_row_delay_us = static_cast<int64_t>(in.ReadU64());
  request.debug_delay_us = static_cast<int64_t>(in.ReadU64());
  request.trace_id = in.ReadU64();
  request.read_only = in.ReadU8() != 0;
  request.wal_cursor = in.ReadU64();
  request.records = ReadStrings(&in);
  request.begin = in.ReadU8() != 0;
  if (!in.ok()) return Status::InvalidArgument("truncated request frame");
  if (in.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after request frame");
  }
  return request;
}

Result<RpcResponse> DecodeResponse(std::string_view payload) {
  Reader in(payload);
  if (in.ReadU8() != kResponseTag) {
    return Status::InvalidArgument("not a response frame");
  }
  RpcResponse response;
  uint8_t code = in.ReadU8();
  if (code > static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
    return Status::InvalidArgument("unknown status code " +
                                   std::to_string(code));
  }
  response.code = static_cast<StatusCode>(code);
  response.message = in.ReadString();
  response.result = ReadQueryResult(&in);
  response.records = ReadStrings(&in);
  uint32_t txns = in.ReadCount();
  response.txn_ids.reserve(txns);
  for (uint32_t i = 0; i < txns && in.ok(); ++i) {
    response.txn_ids.push_back(in.ReadU64());
  }
  response.names = ReadStrings(&in);
  response.server_duration_us = static_cast<int64_t>(in.ReadU64());
  response.retry_after_us = static_cast<int64_t>(in.ReadU64());
  response.snapshot_ts = in.ReadU64();
  response.wal_lsn = in.ReadU64();
  if (!in.ok()) return Status::InvalidArgument("truncated response frame");
  if (in.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after response frame");
  }
  return response;
}

}  // namespace mtdb::net
