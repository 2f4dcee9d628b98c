#include "src/storage/database.h"

namespace mtdb {

Status Database::CreateTable(TableSchema schema) {
  platform::WriterGuard lock(latch_);
  std::string table_name = schema.name();
  auto [it, inserted] = tables_.try_emplace(
      table_name, std::make_unique<Table>(std::move(schema), versions_live_));
  if (!inserted) {
    return Status::AlreadyExists("table " + table_name + " in database " +
                                 name_);
  }
  return Status::OK();
}

Status Database::DropTable(const std::string& table_name) {
  platform::WriterGuard lock(latch_);
  if (tables_.erase(table_name) == 0) {
    return Status::NotFound("table " + table_name + " in database " + name_);
  }
  return Status::OK();
}

Table* Database::GetTable(const std::string& table_name) const {
  platform::ReaderGuard lock(latch_);
  auto it = tables_.find(table_name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::TableNames() const {
  platform::ReaderGuard lock(latch_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

size_t Database::table_count() const {
  platform::ReaderGuard lock(latch_);
  return tables_.size();
}

size_t Database::ApproxByteSize() const {
  platform::ReaderGuard lock(latch_);
  size_t total = 0;
  for (const auto& [name, table] : tables_) {
    table->VisitRange(std::nullopt, std::nullopt,
                      [&total](const Value&, const StoredRow& row) {
                        for (const Value& v : row.values) total += v.ByteSize();
                        return true;
                      });
  }
  return total;
}

size_t Database::SettleVersions(uint64_t watermark) {
  platform::ReaderGuard lock(latch_);
  size_t dropped = 0;
  for (const auto& [name, table] : tables_) {
    dropped += table->SettleAll(watermark);
  }
  return dropped;
}

}  // namespace mtdb
