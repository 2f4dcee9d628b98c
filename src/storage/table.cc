#include "src/storage/table.h"

#include <functional>

namespace mtdb {

namespace {
uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
}

uint64_t HashValue(const Value& v) {
  return std::hash<std::string>{}(v.LockKey());
}
}  // namespace

Table::Table(TableSchema schema, std::atomic<int64_t>* versions_live)
    : schema_(std::move(schema)), versions_live_(versions_live) {
  index_data_.resize(schema_.indexes().size());
}

Table::~Table() { versions_live_->fetch_sub(versions_.load()); }

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

bool Table::Insert(const Row& row, uint64_t version, StoredRow* pre) {
  platform::WriterGuard lock(latch_);
  const Value& pk = row[schema_.primary_key_index()];
  auto [it, inserted] = rows_.try_emplace(pk, StoredRow{row, version});
  if (!inserted) return false;
  IndexInsertLocked(pk, row);
  auto entry = history_.find(pk);
  if (pre != nullptr) {
    if (entry == history_.end()) entry = history_.try_emplace(pk).first;
    *pre = StoredRow{Row{}, entry->second.tombstone};
    SeedLocked(entry->second, nullptr, entry->second.tombstone);
  }
  if (entry != history_.end()) {
    entry->second.tombstone = 0;
    EraseIfIdleLocked(entry);
  }
  return true;
}

bool Table::Update(const Value& pk, const Row& row, uint64_t version,
                   StoredRow* pre) {
  platform::WriterGuard lock(latch_);
  auto it = rows_.find(pk);
  if (it == rows_.end()) return false;
  IndexEraseLocked(pk, it->second.values);
  if (pre != nullptr) {
    SeedLocked(history_[pk], &it->second, 0);
    *pre = std::move(it->second);
  }
  it->second.values = row;
  it->second.version = version;
  IndexInsertLocked(pk, row);
  return true;
}

bool Table::Delete(const Value& pk, uint64_t tombstone_version,
                   StoredRow* pre) {
  platform::WriterGuard lock(latch_);
  auto it = rows_.find(pk);
  if (it == rows_.end()) return false;
  IndexEraseLocked(pk, it->second.values);
  auto entry = history_.try_emplace(pk).first;
  if (pre != nullptr) {
    SeedLocked(entry->second, &it->second, 0);
    *pre = std::move(it->second);
  }
  rows_.erase(it);
  entry->second.tombstone = tombstone_version;
  EraseIfIdleLocked(entry);
  return true;
}

RowVersion Table::GetAt(const Value& pk, uint64_t snapshot_ts) const {
  platform::ReaderGuard lock(latch_);
  auto entry = history_.find(pk);
  if (entry != history_.end()) {
    const RowVersion* version = VisibleAt(entry->second.chain, snapshot_ts);
    if (version != nullptr) return *version;
  }
  auto it = rows_.find(pk);
  if (it != rows_.end()) {
    return RowVersion{0, it->second.version, it->second.values};
  }
  return RowVersion{
      0, entry == history_.end() ? 0 : entry->second.tombstone, std::nullopt};
}

void Table::AppendCommitted(const Value& pk, uint64_t commit_ts) {
  platform::WriterGuard lock(latch_);
  auto entry = history_.find(pk);
  if (entry == history_.end() || entry->second.chain.empty() ||
      entry->second.chain.back().commit_ts == commit_ts) {
    return;
  }
  auto it = rows_.find(pk);
  entry->second.chain.push_back(
      it != rows_.end()
          ? RowVersion{commit_ts, it->second.version, it->second.values}
          : RowVersion{commit_ts, entry->second.tombstone, std::nullopt});
  CountVersionsLocked(1);
}

size_t Table::Settle(const Value& pk, uint64_t watermark) {
  platform::WriterGuard lock(latch_);
  auto entry = history_.find(pk);
  return entry == history_.end() ? 0 : SettleLocked(entry, watermark);
}

size_t Table::SettleAll(uint64_t watermark) {
  if (versions_.load(std::memory_order_relaxed) == 0) return 0;
  platform::WriterGuard lock(latch_);
  size_t dropped = 0;
  for (auto entry = history_.begin(); entry != history_.end();) {
    auto next = std::next(entry);
    if (!entry->second.chain.empty()) {
      dropped += SettleLocked(entry, watermark);
    }
    entry = next;
  }
  return dropped;
}

void Table::SeedLocked(History& history, const StoredRow* live,
                       uint64_t tombstone) {
  if (!history.chain.empty()) return;
  history.chain.push_back(
      live != nullptr ? RowVersion{0, live->version, live->values}
                      : RowVersion{0, tombstone, std::nullopt});
  CountVersionsLocked(1);
}

size_t Table::SettleLocked(HistoryMap::iterator entry, uint64_t watermark) {
  std::vector<RowVersion>& chain = entry->second.chain;
  // Keep the newest version at or below the watermark (the floor every
  // open snapshot reads) and everything above it.
  size_t dropped = 0;
  for (size_t i = 1; i < chain.size(); ++i) {
    if (chain[i].commit_ts <= watermark) dropped = i;
  }
  chain.erase(chain.begin(), chain.begin() + static_cast<ptrdiff_t>(dropped));
  // One version left, and the live entry shows it: every snapshot reads
  // the live entry. A writer in flight shows a version not yet in the chain.
  if (chain.size() == 1 &&
      chain.front().row_version == LastVersionLocked(entry->first)) {
    chain.clear();
    ++dropped;
  }
  CountVersionsLocked(-static_cast<int64_t>(dropped));
  EraseIfIdleLocked(entry);
  return dropped;
}

void Table::EraseIfIdleLocked(HistoryMap::iterator entry) {
  if (entry->second.chain.empty() && entry->second.tombstone == 0) {
    history_.erase(entry);
  }
}

void Table::CountVersionsLocked(int64_t delta) {
  if (delta == 0) return;
  versions_.fetch_add(delta, std::memory_order_relaxed);
  versions_live_->fetch_add(delta, std::memory_order_relaxed);
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
  return LastVersionLocked(pk);
}

uint64_t Table::LastVersionLocked(const Value& pk) const {
  auto it = rows_.find(pk);
  if (it != rows_.end()) return it->second.version;
  auto entry = history_.find(pk);
  return entry == history_.end() ? 0 : entry->second.tombstone;
}

size_t Table::row_count() const {
  platform::ReaderGuard lock(latch_);
  return rows_.size();
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
