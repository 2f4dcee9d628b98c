#include "src/storage/table.h"

#include <functional>

namespace mtdb {

namespace {
size_t RowBytes(const Row& row) {
  size_t total = 0;
  for (const Value& v : row) total += v.ByteSize();
  return total;
}

uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
}

uint64_t HashValue(const Value& v) {
  return std::hash<std::string>{}(v.LockKey());
}
}  // namespace

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  index_data_.resize(schema_.indexes().size());
}

Status Table::AddIndex(const std::string& index_name,
                       const std::string& column_name) {
  platform::WriterGuard lock(latch_);
  MTDB_RETURN_IF_ERROR(schema_.AddIndex(index_name, column_name));
  // Backfill the new index from existing rows.
  const IndexDef& def = schema_.indexes().back();
  index_data_.emplace_back();
  std::multimap<Value, Value>& data = index_data_.back();
  for (const auto& [pk, stored] : rows_) {
    data.emplace(stored.values[def.column_index], pk);
  }
  return Status::OK();
}

std::optional<StoredRow> Table::Get(const Value& pk) const {
  platform::ReaderGuard lock(latch_);
  auto it = rows_.find(pk);
  if (it == rows_.end()) return std::nullopt;
  return it->second;
}

void Table::IndexInsertLocked(const Value& pk, const Row& row) {
  for (size_t i = 0; i < schema_.indexes().size(); ++i) {
    index_data_[i].emplace(row[schema_.indexes()[i].column_index], pk);
  }
}

void Table::IndexEraseLocked(const Value& pk, const Row& row) {
  for (size_t i = 0; i < schema_.indexes().size(); ++i) {
    const Value& key = row[schema_.indexes()[i].column_index];
    auto [lo, hi] = index_data_[i].equal_range(key);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == pk) {
        index_data_[i].erase(it);
        break;
      }
    }
  }
}

bool Table::Insert(const Row& row, uint64_t version) {
  platform::WriterGuard lock(latch_);
  const Value& pk = row[schema_.primary_key_index()];
  auto [it, inserted] = rows_.try_emplace(pk, StoredRow{row, version});
  if (!inserted) return false;
  IndexInsertLocked(pk, row);
  last_versions_[pk] = std::max(last_versions_[pk], version);
  byte_size_.fetch_add(RowBytes(row), std::memory_order_relaxed);
  return true;
}

bool Table::Update(const Value& pk, const Row& row, uint64_t version) {
  platform::WriterGuard lock(latch_);
  auto it = rows_.find(pk);
  if (it == rows_.end()) return false;
  byte_size_.fetch_sub(RowBytes(it->second.values), std::memory_order_relaxed);
  IndexEraseLocked(pk, it->second.values);
  it->second.values = row;
  it->second.version = version;
  IndexInsertLocked(pk, row);
  last_versions_[pk] = std::max(last_versions_[pk], version);
  byte_size_.fetch_add(RowBytes(row), std::memory_order_relaxed);
  return true;
}

bool Table::Delete(const Value& pk, uint64_t tombstone_version) {
  platform::WriterGuard lock(latch_);
  auto it = rows_.find(pk);
  if (it == rows_.end()) return false;
  byte_size_.fetch_sub(RowBytes(it->second.values), std::memory_order_relaxed);
  IndexEraseLocked(pk, it->second.values);
  rows_.erase(it);
  last_versions_[pk] = std::max(last_versions_[pk], tombstone_version);
  return true;
}

Result<std::vector<Value>> Table::IndexLookup(int column_index,
                                              const Value& key) const {
  platform::ReaderGuard lock(latch_);
  for (size_t i = 0; i < schema_.indexes().size(); ++i) {
    if (schema_.indexes()[i].column_index != column_index) continue;
    auto [lo, hi] = index_data_[i].equal_range(key);
    std::vector<Value> pks;
    for (auto it = lo; it != hi; ++it) pks.push_back(it->second);
    return pks;
  }
  return Status::NotFound("no index on column " + std::to_string(column_index) +
                          " of table " + schema_.name());
}

uint64_t Table::LastVersion(const Value& pk) const {
  platform::ReaderGuard lock(latch_);
  auto it = last_versions_.find(pk);
  return it == last_versions_.end() ? 0 : it->second;
}

size_t Table::row_count() const {
  platform::ReaderGuard lock(latch_);
  return rows_.size();
}

size_t Table::byte_size() const {
  return byte_size_.load(std::memory_order_relaxed);
}

uint64_t Table::ContentFingerprint() const {
  platform::ReaderGuard lock(latch_);
  uint64_t total = 0;
  for (const auto& [pk, stored] : rows_) {
    uint64_t h = HashValue(pk);
    for (const Value& v : stored.values) h = HashCombine(h, HashValue(v));
    total += h;  // order-insensitive accumulation
  }
  return total;
}

}  // namespace mtdb
