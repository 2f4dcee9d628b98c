#include "src/storage/wal/wal.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <utility>

#include "src/storage/encoding.h"
#include "src/storage/engine.h"

namespace mtdb {

namespace {

bool IsRowImage(WalRecordType type) {
  return type == WalRecordType::kInsert || type == WalRecordType::kUpdate ||
         type == WalRecordType::kDelete;
}

bool IsDecision(WalRecordType type) {
  return type == WalRecordType::kPrepare || type == WalRecordType::kCommit ||
         type == WalRecordType::kAbort;
}

// Appends a row image's payload: its type byte, then its fields.
void AppendRowImage(std::string* out, WalRecordType type, uint64_t txn_id,
                    const std::string& database, const std::string& table,
                    const Value& primary_key, const Row& row) {
  encoding::AppendU8(out, static_cast<uint8_t>(type));
  encoding::AppendU64(out, txn_id);
  encoding::AppendString(out, database);
  encoding::AppendString(out, table);
  encoding::AppendValue(out, primary_key);
  encoding::AppendRow(out, row);
}

// Appends one record's payload: its type byte, then the type's fields.
void AppendPayload(std::string* out, const WalRecord& record) {
  if (IsRowImage(record.type)) {
    AppendRowImage(out, record.type, record.txn_id, record.database,
                   record.table, record.primary_key, record.row);
    return;
  }
  encoding::AppendU8(out, static_cast<uint8_t>(record.type));
  if (IsDecision(record.type)) {
    encoding::AppendU64(out, record.txn_id);
    return;
  }
  encoding::AppendString(out, record.database);
  switch (record.type) {
    case WalRecordType::kCreateTable:
      encoding::AppendSchema(out, record.schema);
      break;
    case WalRecordType::kCreateIndex:
      encoding::AppendString(out, record.table);
      encoding::AppendString(out, record.index);
      encoding::AppendString(out, record.column);
      break;
    case WalRecordType::kDropTable:
      encoding::AppendString(out, record.table);
      break;
    default:  // kCreateDatabase, kDropDatabase: the database alone
      break;
  }
}

// A record as the log file holds it is its payload behind a u32 length:
// NewFrame starts one, and FinishRecord patches the length in.
std::string NewFrame() {
  std::string record;
  encoding::BeginFrame(&record);
  return record;
}

std::string FinishRecord(std::string record) {
  encoding::EndFrame(&record, 0);
  return record;
}

// The payloads of every complete record of a log file, in LSN order
// (payload i holds LSN i+1). An incomplete last record, the torn tail of a
// crash or of a write still in progress, is left out.
Result<std::vector<std::string>> ReadPayloads(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::NotFound("WAL file " + path);
  std::string bytes;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes.append(buffer, n);
  }
  bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    return Status::Unavailable("wal: read failed on " + path + ": " +
                               std::strerror(errno));
  }
  std::vector<std::string> payloads;
  encoding::Reader in(bytes);
  while (true) {
    std::string_view payload = in.ReadBytes(in.ReadU32());
    if (!in.ok()) break;  // torn tail
    payloads.emplace_back(payload);
  }
  return payloads;
}

}  // namespace

Result<WalRecord> WriteAheadLog::Decode(std::string_view payload) {
  encoding::Reader in(payload);
  uint8_t type = in.ReadU8();
  if (type < static_cast<uint8_t>(WalRecordType::kCreateDatabase) ||
      type > static_cast<uint8_t>(WalRecordType::kDropTable)) {
    return Status::InvalidArgument("unknown WAL record type " +
                                   std::to_string(type));
  }
  WalRecord record;
  record.type = static_cast<WalRecordType>(type);
  if (IsDecision(record.type)) {
    record.txn_id = in.ReadU64();
  } else if (IsRowImage(record.type)) {
    record.txn_id = in.ReadU64();
    record.database = in.ReadString();
    record.table = in.ReadString();
    record.primary_key = in.ReadValue();
    record.row = in.ReadRow();
  } else {
    // DDL, laid out as AppendPayload writes it.
    record.database = in.ReadString();
    switch (record.type) {
      case WalRecordType::kCreateTable:
        record.schema = in.ReadSchema();
        record.table = record.schema.name();
        break;
      case WalRecordType::kCreateIndex:
        record.table = in.ReadString();
        record.index = in.ReadString();
        record.column = in.ReadString();
        break;
      case WalRecordType::kDropTable:
        record.table = in.ReadString();
        break;
      default:  // kCreateDatabase, kDropDatabase: the database alone
        break;
    }
  }
  if (!in.ok()) return Status::InvalidArgument("truncated WAL record");
  if (in.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after WAL record");
  }
  return record;
}

WriteAheadLog::WriteAheadLog(std::unique_ptr<wal::LogWriter> writer)
    : writer_(std::move(writer)) {}

WriteAheadLog::~WriteAheadLog() = default;

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path, Options options) {
  MTDB_ASSIGN_OR_RETURN(std::unique_ptr<wal::LogWriter> writer,
                        wal::LogWriter::Open(path, std::move(options)));
  return std::unique_ptr<WriteAheadLog>(new WriteAheadLog(std::move(writer)));
}

Status WriteAheadLog::Discard(const std::string& path) {
  if (std::remove(path.c_str()) != 0 && errno != ENOENT) {
    return Status::Unavailable("wal: cannot remove " + path + ": " +
                               std::strerror(errno));
  }
  return Status::OK();
}

std::string WriteAheadLog::Encode(const WalRecord& record) {
  std::string payload;
  AppendPayload(&payload, record);
  return payload;
}

Status WriteAheadLog::AppendDdl(const WalRecord& ddl) {
  if (IsRowImage(ddl.type) || IsDecision(ddl.type)) {
    return Status::InvalidArgument("not a DDL record");
  }
  std::string record = NewFrame();
  AppendPayload(&record, ddl);
  MTDB_ASSIGN_OR_RETURN(uint64_t lsn,
                        writer_->Append(FinishRecord(std::move(record))));
  (void)lsn;
  // DDL is rare and structural: always durable before returning.
  return writer_->SyncAll();
}

Status WriteAheadLog::AppendRowOp(WalRecordType type, uint64_t txn_id,
                                  const std::string& database,
                                  const std::string& table,
                                  const Value& primary_key, const Row& row) {
  std::string record = NewFrame();
  AppendRowImage(&record, type, txn_id, database, table, primary_key, row);
  // Enqueue only: the decision record appended after this one has a higher
  // LSN, so awaiting the decision covers every row image of the txn.
  MTDB_ASSIGN_OR_RETURN(uint64_t lsn,
                        writer_->Append(FinishRecord(std::move(record))));
  (void)lsn;
  return Status::OK();
}

Result<uint64_t> WriteAheadLog::AppendDecisionAsync(WalRecordType type,
                                                    uint64_t txn_id) {
  std::string record = NewFrame();
  AppendPayload(&record, {.type = type, .txn_id = txn_id});
  return writer_->Append(FinishRecord(std::move(record)));
}

Status WriteAheadLog::AwaitDurable(uint64_t lsn) {
  return writer_->AwaitDurable(lsn);
}

Status WriteAheadLog::Sync() { return writer_->SyncAll(); }

Result<std::vector<WalRecord>> WriteAheadLog::ReadAll(
    const std::string& path) {
  MTDB_ASSIGN_OR_RETURN(std::vector<std::string> payloads,
                        ReadPayloads(path));
  std::vector<WalRecord> records;
  records.reserve(payloads.size());
  for (const std::string& payload : payloads) {
    MTDB_ASSIGN_OR_RETURN(WalRecord record, Decode(payload));
    records.push_back(std::move(record));
  }
  return records;
}

Result<std::vector<std::string>> WriteAheadLog::ReadCommittedDeltaSince(
    const std::string& path, const std::string& database, uint64_t after_lsn,
    uint64_t* frontier) {
  MTDB_ASSIGN_OR_RETURN(std::vector<std::string> payloads,
                        ReadPayloads(path));
  std::vector<WalRecord> records;
  records.reserve(payloads.size());
  std::map<uint64_t, uint64_t> commit_lsn;
  for (const std::string& payload : payloads) {
    MTDB_ASSIGN_OR_RETURN(WalRecord record, Decode(payload));
    if (record.type == WalRecordType::kCommit) {
      commit_lsn[record.txn_id] = records.size() + 1;
    }
    records.push_back(std::move(record));
  }
  *frontier = static_cast<uint64_t>(records.size());
  std::vector<std::string> delta;
  for (size_t i = 0; i < records.size(); ++i) {
    const WalRecord& record = records[i];
    const uint64_t lsn = i + 1;
    // Decisions never ship: the commit filter has already applied them.
    if (IsDecision(record.type)) continue;
    if (!database.empty() && record.database != database) continue;
    bool ship = lsn > after_lsn;  // DDL and bulk load key on their own LSN
    if (IsRowImage(record.type) && record.txn_id != 0) {
      // Keyed on the transaction's COMMIT LSN: a transaction that was in
      // flight at the previous round's frontier had its images below the
      // cursor, but its commit lands above it, so this round ships the
      // whole transaction exactly once.
      auto it = commit_lsn.find(record.txn_id);
      ship = it != commit_lsn.end() && it->second > after_lsn;
    }
    if (ship) delta.push_back(std::move(payloads[i]));
  }
  return delta;
}

Status WriteAheadLog::Replay(const std::vector<std::string>& records,
                             Engine* engine) {
  for (const std::string& payload : records) {
    MTDB_ASSIGN_OR_RETURN(WalRecord record, Decode(payload));
    Status status;
    switch (record.type) {
      case WalRecordType::kCreateDatabase:
        status = engine->CreateDatabase(record.database);
        break;
      case WalRecordType::kCreateTable:
        status = engine->CreateTable(record.database, std::move(record.schema));
        break;
      case WalRecordType::kCreateIndex:
        status = engine->CreateIndex(record.database, record.table,
                                     record.index, record.column);
        break;
      case WalRecordType::kDropDatabase:
        status = engine->DropDatabase(record.database);
        break;
      case WalRecordType::kDropTable:
        status = engine->DropTable(record.database, record.table);
        break;
      case WalRecordType::kInsert:
      case WalRecordType::kUpdate:
      case WalRecordType::kDelete:
        status = engine->ApplyRedoRow(record.database, record.table,
                                      record.type, record.primary_key,
                                      record.row);
        break;
      case WalRecordType::kPrepare:
      case WalRecordType::kCommit:
      case WalRecordType::kAbort:
        break;
    }
    // The engine may be ahead of the record: the bulk copy under a
    // migration delta already has what it creates, or lacks what a later
    // drop removes.
    if (!status.ok() && status.code() != StatusCode::kAlreadyExists &&
        status.code() != StatusCode::kNotFound) {
      return status;
    }
  }
  // The applied row images sit in the engine's log queue: make them as
  // durable as the DDL around them.
  WriteAheadLog* log = engine->wal();
  return log == nullptr ? Status::OK() : log->Sync();
}

Status WriteAheadLog::Recover(const std::string& path, Engine* engine) {
  uint64_t frontier = 0;
  MTDB_ASSIGN_OR_RETURN(
      std::vector<std::string> records,
      ReadCommittedDeltaSince(path, /*database=*/"", /*after_lsn=*/0,
                              &frontier));
  return Replay(records, engine);
}

}  // namespace mtdb
