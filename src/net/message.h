#ifndef MTDB_NET_MESSAGE_H_
#define MTDB_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/sql/query_result.h"
#include "src/storage/value.h"

namespace mtdb::net {

// Every controller->machine interaction, as a message type. Transactional
// requests (kBegin..kAbort) ride a per-session ordered channel; the rest are
// control-plane requests issued outside client transactions.
enum class RpcType : uint8_t {
  kHealth = 1,         // liveness probe
  kBegin = 2,          // start engine-side transaction txn_id (sent ahead
                       // of a write; a read carries RpcRequest::begin)
  kExecute = 3,        // run one SQL statement inside txn_id
  kPrepare = 4,        // 2PC phase 1 (the vote is the response Status)
  kCommit = 5,         // one-phase commit (read-only / single participant)
  kCommitPrepared = 6, // 2PC phase 2
  kAbort = 7,
  kCreateDatabase = 8,
  kDropDatabase = 9,
  kHasDatabase = 10,   // catalog probe (recovery target selection)
  kExecuteDdl = 11,    // DDL statement, run outside client transactions
  kBulkLoad = 12,      // non-transactional bulk insert (setup / data gen)
  kDumpTable = 13,     // copy-tool source side: one table as log records
  kDumpDatabase = 14,  // database-granularity dump: every table's records
  // 15 is retired: it installed a table dump, a second copy format that
  // kApplyRecords replaced. DecodeRequest rejects it.
  kListPrepared = 16,  // prepared txn ids (process-pair takeover)
  kListActive = 17,    // active txn ids (process-pair takeover)
  kListTables = 18,    // table names of one database (recovery work list)
  // Retired statement-handle RPCs: statements travel only as kExecute SQL
  // text, planned through the machine's plan cache. The numbers stay
  // reserved and named (trace readers classify them); DecodeRequest rejects
  // both.
  kPrepareStatement = 19,
  kExecutePrepared = 20,
  kStats = 21,             // metrics dump (text exposition in the message)
  kSetQuota = 22,          // install a QoS quota for db_name on the machine
  kWalDeltaRead = 23,      // live migration: committed WAL delta since cursor
  kApplyRecords = 24,      // copy target: replay a bulk copy or a delta
};

// Every wire number lies in [1, kRpcTypeLimit); IsLiveRpcType excludes the
// retired ones. Per-type tables and the decoder all size and validate
// against this one range.
constexpr int kRpcTypeLimit = static_cast<int>(RpcType::kApplyRecords) + 1;
constexpr bool IsLiveRpcType(int raw) {
  return raw >= static_cast<int>(RpcType::kHealth) && raw < kRpcTypeLimit &&
         raw != 15 && raw != static_cast<int>(RpcType::kPrepareStatement) &&
         raw != static_cast<int>(RpcType::kExecutePrepared);
}

std::string_view RpcTypeName(RpcType type);

// A decoded request. One struct covers every RpcType; unused fields stay at
// their defaults and encode to nothing beyond their presence tags.
struct RpcRequest {
  RpcType type = RpcType::kHealth;
  uint64_t txn_id = 0;            // transactional ops, kDumpTable (dump txn)
  std::string db_name;            // everything except kHealth/kList*
  std::string table;              // kBulkLoad / kDumpTable
  std::string sql;                // kExecute / kExecuteDdl
  // kExecute ('?' binding); kSetQuota carries the quota triple
  // [rate_tps (double), burst (double), weight (int)] here.
  std::vector<Value> params;
  std::vector<Row> rows;          // kBulkLoad
  int64_t per_row_delay_us = 0;   // kDumpTable / kDumpDatabase copy-cost model
  // Test instrumentation: extra service delay applied before execution (the
  // controller's latency injector rides the wire so fault schedules stay
  // deterministic across transports).
  int64_t debug_delay_us = 0;
  // Distributed-tracing correlation id minted by the issuing Connection;
  // 0 means "not part of a traced transaction".
  uint64_t trace_id = 0;
  // kBegin, and kExecute with `begin`: start the transaction in read-only
  // snapshot mode — reads come from the MVCC snapshot without lock-manager
  // traffic, writes are rejected. Always on the wire; old-format frames fail
  // decoding.
  bool read_only = false;
  // kWalDeltaRead: ship committed records for db_name past this source-WAL
  // frontier (LSN). UINT64_MAX is a capability probe: no records,
  // frontier only. Always on the wire, like read_only.
  uint64_t wal_cursor = 0;
  // kApplyRecords: log record payloads to replay, as a dump or a
  // kWalDeltaRead reply carries them.
  std::vector<std::string> records;
  // kExecute: this is the transaction's first request to the machine, so the
  // machine runs QoS admission and starts txn_id (with `read_only`) before
  // the statement, exactly as a kBegin would. A refusal answers
  // kResourceExhausted + retry_after_us with nothing executed; otherwise the
  // reply carries snapshot_ts. Always on the wire, like wal_cursor.
  bool begin = false;

  // Not a wire field: the codec never writes it. Set when the request may
  // run on the caller's thread: an in-process transport then runs it inside
  // Call when its channel is idle (see InProcTransport). The caller need
  // not wait for the reply. TcpTransport ignores it.
  bool may_run_inline = false;
};

// A decoded response. `code`/`message` carry the operation Status; payload
// fields are filled per request type.
struct RpcResponse {
  StatusCode code = StatusCode::kOk;
  std::string message;
  sql::QueryResult result;         // kExecute / kExecuteDdl
  // kDumpTable / kDumpDatabase / kWalDeltaRead: log record payloads
  // (WriteAheadLog::Encode), for the target's kApplyRecords.
  std::vector<std::string> records;
  std::vector<uint64_t> txn_ids;   // kListPrepared / kListActive
  std::vector<std::string> names;  // kListTables
  // Service time measured machine-side (dispatch entry to reply), echoed to
  // the client so traces can split client-observed latency into transport
  // vs execution. -1 when the server predates the field or never measured.
  int64_t server_duration_us = -1;
  // Backoff hint accompanying a kResourceExhausted code: how long the
  // caller should wait before retrying the same machine, in microseconds.
  // 0 (the default, and the value on every non-throttled response) means
  // "no hint". Always on the wire, like trace_id/server_duration_us.
  int64_t retry_after_us = 0;
  // kBegin, or kExecute with `begin`, on a read-only transaction: the
  // engine-local MVCC snapshot timestamp assigned to it (0 for read-write
  // begins and every other response). Always on the wire, like
  // retry_after_us.
  uint64_t snapshot_ts = 0;
  // kWalDeltaRead: the source-WAL frontier (LSN of the last complete record)
  // the returned delta catches the caller up to; feed it back as the next
  // round's wal_cursor. 0 elsewhere. Always on the wire, like snapshot_ts.
  uint64_t wal_lsn = 0;

  bool ok() const { return code == StatusCode::kOk; }
  Status ToStatus() const {
    return ok() ? Status::OK() : Status(code, message);
  }
  static RpcResponse FromStatus(const Status& status) {
    RpcResponse response;
    response.code = status.code();
    response.message = status.message();
    return response;
  }
};

}  // namespace mtdb::net

#endif  // MTDB_NET_MESSAGE_H_
