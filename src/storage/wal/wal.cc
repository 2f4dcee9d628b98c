#include "src/storage/wal/wal.h"

#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "src/storage/engine.h"

namespace mtdb {

namespace {

constexpr char kFieldSep = '\x1f';

// Escapes field separators and newlines so one record is one line.
std::string Escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case kFieldSep:
        out += "\\f";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string Unescape(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\' || i + 1 >= escaped.size()) {
      out.push_back(escaped[i]);
      continue;
    }
    ++i;
    switch (escaped[i]) {
      case 'n':
        out.push_back('\n');
        break;
      case 'f':
        out.push_back(kFieldSep);
        break;
      default:
        out.push_back(escaped[i]);
    }
  }
  return out;
}

std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      current.push_back(line[i]);
      current.push_back(line[i + 1]);
      ++i;
      continue;
    }
    if (line[i] == kFieldSep) {
      fields.push_back(std::move(current));
      current.clear();
      continue;
    }
    current.push_back(line[i]);
  }
  fields.push_back(std::move(current));
  return fields;
}

const char* TypeTag(WalRecordType type) {
  switch (type) {
    case WalRecordType::kCreateDatabase:
      return "CDB";
    case WalRecordType::kCreateTable:
      return "CTB";
    case WalRecordType::kCreateIndex:
      return "CIX";
    case WalRecordType::kInsert:
      return "INS";
    case WalRecordType::kUpdate:
      return "UPD";
    case WalRecordType::kDelete:
      return "DEL";
    case WalRecordType::kPrepare:
      return "PRP";
    case WalRecordType::kCommit:
      return "CMT";
    case WalRecordType::kAbort:
      return "ABT";
  }
  return "???";
}

Result<WalRecordType> ParseTypeTag(const std::string& tag) {
  if (tag == "CDB") return WalRecordType::kCreateDatabase;
  if (tag == "CTB") return WalRecordType::kCreateTable;
  if (tag == "CIX") return WalRecordType::kCreateIndex;
  if (tag == "INS") return WalRecordType::kInsert;
  if (tag == "UPD") return WalRecordType::kUpdate;
  if (tag == "DEL") return WalRecordType::kDelete;
  if (tag == "PRP") return WalRecordType::kPrepare;
  if (tag == "CMT") return WalRecordType::kCommit;
  if (tag == "ABT") return WalRecordType::kAbort;
  return Status::Internal("unknown WAL record tag " + tag);
}

}  // namespace

std::string WriteAheadLog::EncodeValue(const Value& value) {
  if (value.is_null()) return "N";
  if (value.is_int()) {
    return std::string("I").append(std::to_string(value.AsInt()));
  }
  if (value.is_double()) {
    std::ostringstream out;
    out.precision(17);
    out << "D" << value.AsDouble();
    return out.str();
  }
  return "S" + value.AsString();
}

Result<Value> WriteAheadLog::DecodeValue(const std::string& text) {
  if (text.empty()) return Status::Internal("empty WAL value");
  char tag = text[0];
  std::string body = text.substr(1);
  switch (tag) {
    case 'N':
      return Value();
    case 'I':
      return Value(static_cast<int64_t>(std::stoll(body)));
    case 'D':
      return Value(std::stod(body));
    case 'S':
      return Value(std::move(body));
  }
  return Status::Internal(std::string("bad WAL value tag '") + tag + "'");
}

std::string WriteAheadLog::EncodeSchema(const TableSchema& schema) {
  // name|pk_index|col:type:notnull,...|index:col,...
  std::ostringstream out;
  out << schema.name() << '|' << schema.primary_key_index() << '|';
  for (size_t i = 0; i < schema.columns().size(); ++i) {
    if (i > 0) out << ',';
    const Column& col = schema.columns()[i];
    out << col.name << ':' << static_cast<int>(col.type) << ':'
        << (col.not_null ? 1 : 0);
  }
  out << '|';
  for (size_t i = 0; i < schema.indexes().size(); ++i) {
    if (i > 0) out << ',';
    out << schema.indexes()[i].name << ':'
        << schema.indexes()[i].column_index;
  }
  return out.str();
}

Result<TableSchema> WriteAheadLog::DecodeSchema(const std::string& text) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : text) {
    if (c == '|') {
      parts.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  parts.push_back(std::move(current));
  if (parts.size() != 4) return Status::Internal("bad WAL schema encoding");

  std::vector<Column> columns;
  std::istringstream cols(parts[2]);
  std::string col_spec;
  while (std::getline(cols, col_spec, ',')) {
    size_t a = col_spec.find(':');
    size_t b = col_spec.rfind(':');
    if (a == std::string::npos || b == a) {
      return Status::Internal("bad WAL column encoding: " + col_spec);
    }
    Column col;
    col.name = col_spec.substr(0, a);
    col.type = static_cast<ColumnType>(std::stoi(col_spec.substr(a + 1, b - a - 1)));
    col.not_null = col_spec.substr(b + 1) == "1";
    columns.push_back(std::move(col));
  }
  TableSchema schema(parts[0], std::move(columns), std::stoi(parts[1]));
  if (!parts[3].empty()) {
    std::istringstream indexes(parts[3]);
    std::string index_spec;
    while (std::getline(indexes, index_spec, ',')) {
      size_t colon = index_spec.find(':');
      if (colon == std::string::npos) {
        return Status::Internal("bad WAL index encoding");
      }
      int column_index = std::stoi(index_spec.substr(colon + 1));
      MTDB_RETURN_IF_ERROR(
          schema.AddIndex(index_spec.substr(0, colon),
                          schema.columns()[column_index].name));
    }
  }
  return schema;
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

Status WriteAheadLog::AppendDdl(WalRecordType type,
                                const std::string& database,
                                const std::string& table,
                                const std::string& aux) {
  std::string line = std::string(TypeTag(type)) + kFieldSep + "0" +
                     kFieldSep + Escape(database) + kFieldSep + Escape(table) +
                     kFieldSep + Escape(aux);
  MTDB_ASSIGN_OR_RETURN(uint64_t lsn, writer_->Append(std::move(line)));
  (void)lsn;
  // DDL is rare and structural: always durable before returning.
  return writer_->SyncAll();
}

Status WriteAheadLog::AppendRowOp(WalRecordType type, uint64_t txn_id,
                                  const std::string& database,
                                  const std::string& table,
                                  const Value& primary_key, const Row& row) {
  std::string line = std::string(TypeTag(type)) + kFieldSep +
                     std::to_string(txn_id) + kFieldSep + Escape(database) +
                     kFieldSep + Escape(table) + kFieldSep +
                     Escape(EncodeValue(primary_key));
  for (const Value& value : row) {
    line += kFieldSep;
    line += Escape(EncodeValue(value));
  }
  // Enqueue only: the decision record appended after this one has a higher
  // LSN, so awaiting the decision covers every row image of the txn.
  MTDB_ASSIGN_OR_RETURN(uint64_t lsn, writer_->Append(std::move(line)));
  (void)lsn;
  return Status::OK();
}

Result<uint64_t> WriteAheadLog::AppendDecisionAsync(WalRecordType type,
                                                    uint64_t txn_id) {
  std::string line =
      std::string(TypeTag(type)) + kFieldSep + std::to_string(txn_id);
  return writer_->Append(std::move(line));
}

Status WriteAheadLog::AwaitDurable(uint64_t lsn) {
  return writer_->AwaitDurable(lsn);
}

Status WriteAheadLog::Sync() { return writer_->SyncAll(); }

namespace {

// Parses one complete log line. Three outcomes, matching ReadAll's historic
// contract: OK with *out filled for a good record, OK with *out empty for a
// torn/unknown-tag line (skipped by design), error for a structurally valid
// line whose value payload fails to decode.
Status ParseWalLine(const std::string& line, std::optional<WalRecord>* out) {
  out->reset();
  if (line.empty()) return Status::OK();
  std::vector<std::string> fields = SplitFields(line);
  if (fields.size() < 2) return Status::OK();  // torn record: skip
  auto type_or = ParseTypeTag(fields[0]);
  if (!type_or.ok()) return Status::OK();  // torn record: skip
  WalRecord record;
  record.type = *type_or;
  record.txn_id = std::stoull(fields[1]);
  switch (record.type) {
    case WalRecordType::kPrepare:
    case WalRecordType::kCommit:
    case WalRecordType::kAbort:
      break;
    case WalRecordType::kCreateDatabase:
    case WalRecordType::kCreateTable:
    case WalRecordType::kCreateIndex:
      if (fields.size() < 5) return Status::OK();
      record.database = Unescape(fields[2]);
      record.table = Unescape(fields[3]);
      record.aux = Unescape(fields[4]);
      break;
    case WalRecordType::kInsert:
    case WalRecordType::kUpdate:
    case WalRecordType::kDelete: {
      if (fields.size() < 5) return Status::OK();
      record.database = Unescape(fields[2]);
      record.table = Unescape(fields[3]);
      MTDB_ASSIGN_OR_RETURN(record.primary_key,
                            WriteAheadLog::DecodeValue(Unescape(fields[4])));
      for (size_t f = 5; f < fields.size(); ++f) {
        MTDB_ASSIGN_OR_RETURN(Value value,
                              WriteAheadLog::DecodeValue(Unescape(fields[f])));
        record.row.push_back(std::move(value));
      }
      break;
    }
  }
  *out = std::move(record);
  return Status::OK();
}

// Every complete ('\n'-terminated) line of the log file, raw. Line i (0-based)
// holds LSN i+1; a trailing line without '\n' is a torn write, ignored.
Result<std::vector<std::string>> ReadLines(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("WAL file " + path);
  }
  std::vector<std::string> lines;
  std::string line;
  int c;
  while ((c = std::fgetc(file)) != EOF) {
    if (c == '\n') {
      lines.push_back(std::move(line));
      line.clear();
    } else {
      line.push_back(static_cast<char>(c));
    }
  }
  std::fclose(file);
  return lines;
}

}  // namespace

Result<std::vector<WalRecord>> WriteAheadLog::ReadAll(
    const std::string& path) {
  MTDB_ASSIGN_OR_RETURN(std::vector<std::string> lines, ReadLines(path));
  std::vector<WalRecord> records;
  for (const std::string& line : lines) {
    std::optional<WalRecord> record;
    MTDB_RETURN_IF_ERROR(ParseWalLine(line, &record));
    if (record.has_value()) records.push_back(*std::move(record));
  }
  return records;
}

Result<std::vector<std::string>> WriteAheadLog::ReadCommittedDeltaSince(
    const std::string& path, const std::string& database, uint64_t after_lsn,
    uint64_t* frontier) {
  MTDB_ASSIGN_OR_RETURN(std::vector<std::string> lines, ReadLines(path));
  *frontier = static_cast<uint64_t>(lines.size());
  // Parse every line once, keeping the LSN = index+1 alignment (a malformed
  // line still occupies its line number). Delta reads tolerate undecodable
  // values by skipping the line — the live log is being appended while we
  // read, and anything skipped here is either garbage or re-sent by a later
  // round (frontier only covers complete lines).
  std::vector<std::optional<WalRecord>> records(lines.size());
  std::map<uint64_t, uint64_t> commit_lsn;
  for (size_t i = 0; i < lines.size(); ++i) {
    std::optional<WalRecord> record;
    if (!ParseWalLine(lines[i], &record).ok() || !record.has_value()) continue;
    if (record->type == WalRecordType::kCommit) {
      commit_lsn[record->txn_id] = i + 1;
    }
    records[i] = std::move(record);
  }
  std::vector<std::string> delta;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!records[i].has_value()) continue;
    const WalRecord& record = *records[i];
    uint64_t lsn = i + 1;
    switch (record.type) {
      case WalRecordType::kCreateDatabase:
      case WalRecordType::kCreateTable:
      case WalRecordType::kCreateIndex:
        // DDL is decision-free (synced immediately): keyed on its own LSN.
        if (record.database == database && lsn > after_lsn) {
          delta.push_back(lines[i]);
        }
        break;
      case WalRecordType::kInsert:
      case WalRecordType::kUpdate:
      case WalRecordType::kDelete: {
        if (record.database != database) break;
        if (record.txn_id == 0) {
          // Bulk-load pseudo-transaction: implicitly committed at append.
          if (lsn > after_lsn) delta.push_back(lines[i]);
          break;
        }
        // Keyed on the transaction's COMMIT LSN: a transaction that was in
        // flight at the previous round's frontier had its op lines below
        // the cursor, but its commit lands above it, so this round ships
        // the whole transaction exactly once.
        auto it = commit_lsn.find(record.txn_id);
        if (it != commit_lsn.end() && it->second > after_lsn) {
          delta.push_back(lines[i]);
        }
        break;
      }
      case WalRecordType::kPrepare:
      case WalRecordType::kCommit:
      case WalRecordType::kAbort:
        // Decisions never ship: the commit filter has already applied them,
        // so the target replays the delta unconditionally in line order.
        break;
    }
  }
  return delta;
}

std::vector<WalRecord> WriteAheadLog::ParseDeltaLines(
    const std::vector<std::string>& lines) {
  std::vector<WalRecord> records;
  records.reserve(lines.size());
  for (const std::string& line : lines) {
    std::optional<WalRecord> record;
    if (!ParseWalLine(line, &record).ok() || !record.has_value()) continue;
    records.push_back(*std::move(record));
  }
  return records;
}

Status WriteAheadLog::Recover(const std::string& path, Engine* engine) {
  MTDB_ASSIGN_OR_RETURN(std::vector<WalRecord> records, ReadAll(path));
  // Pass 1: find the winners. Transaction id 0 is the bulk-load pseudo
  // transaction and is always a winner.
  std::map<uint64_t, bool> committed;
  committed[0] = true;
  for (const WalRecord& record : records) {
    if (record.type == WalRecordType::kCommit) {
      committed[record.txn_id] = true;
    } else if (record.type == WalRecordType::kAbort) {
      committed[record.txn_id] = false;
    }
  }
  // Pass 2: replay DDL and winners' row images in log order.
  for (const WalRecord& record : records) {
    switch (record.type) {
      case WalRecordType::kCreateDatabase:
        MTDB_RETURN_IF_ERROR(engine->CreateDatabase(record.database));
        break;
      case WalRecordType::kCreateTable: {
        MTDB_ASSIGN_OR_RETURN(TableSchema schema, DecodeSchema(record.aux));
        MTDB_RETURN_IF_ERROR(
            engine->CreateTable(record.database, std::move(schema)));
        break;
      }
      case WalRecordType::kCreateIndex: {
        // aux is "<index_name>:<column_name>".
        size_t colon = record.aux.find(':');
        if (colon == std::string::npos) {
          return Status::Internal("bad WAL index record");
        }
        MTDB_RETURN_IF_ERROR(
            engine->CreateIndex(record.database, record.table,
                                record.aux.substr(0, colon),
                                record.aux.substr(colon + 1)));
        break;
      }
      case WalRecordType::kInsert:
      case WalRecordType::kUpdate:
      case WalRecordType::kDelete: {
        auto it = committed.find(record.txn_id);
        if (it == committed.end() || !it->second) break;  // loser: skip
        Database* db = engine->GetDatabase(record.database);
        if (db == nullptr) break;
        Table* table = db->GetTable(record.table);
        if (table == nullptr) break;
        if (record.type == WalRecordType::kInsert) {
          table->Insert(record.row, table->NextVersion());
        } else if (record.type == WalRecordType::kUpdate) {
          table->Update(record.primary_key, record.row, table->NextVersion());
        } else {
          table->Delete(record.primary_key, table->NextVersion());
        }
        break;
      }
      case WalRecordType::kPrepare:
        // Advisory: a PREPARE without a later CMT is a loser (the
        // coordinator never decided commit), which is already the default
        // for any txn absent from the committed map.
        break;
      case WalRecordType::kCommit:
      case WalRecordType::kAbort:
        break;
    }
  }
  return Status::OK();
}

}  // namespace mtdb
