#include "src/storage/mvcc/version_store.h"

#include <algorithm>

namespace mtdb::mvcc {

namespace {

// Newest version with commit_ts <= snapshot_ts. Chains are ascending and
// start with the ts-0 base, so a non-empty chain always has a match.
const RowVersion* VisibleIn(const std::vector<RowVersion>& chain,
                            uint64_t snapshot_ts) {
  const RowVersion* visible = nullptr;
  for (const RowVersion& version : chain) {
    if (version.commit_ts > snapshot_ts) break;
    visible = &version;
  }
  return visible;
}

}  // namespace

bool VersionStore::SeedBase(const std::string& db_name,
                            const std::string& table_name, const Value& pk,
                            std::optional<Row> values, uint64_t row_version) {
  platform::WriterGuard lock(latch_);
  Chain& chain = tables_[{db_name, table_name}][pk];
  if (!chain.empty()) return false;
  chain.push_back(RowVersion{0, row_version, std::move(values)});
  live_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void VersionStore::Append(const std::string& db_name,
                          const std::string& table_name, const Value& pk,
                          uint64_t commit_ts, std::optional<Row> values,
                          uint64_t row_version) {
  platform::WriterGuard lock(latch_);
  Chain& chain = tables_[{db_name, table_name}][pk];
  chain.push_back(RowVersion{commit_ts, row_version, std::move(values)});
  live_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<RowVersion> VersionStore::Get(const std::string& db_name,
                                            const std::string& table_name,
                                            const Value& pk,
                                            uint64_t snapshot_ts) const {
  platform::ReaderGuard lock(latch_);
  auto table_it = tables_.find({db_name, table_name});
  if (table_it == tables_.end()) return std::nullopt;
  auto chain_it = table_it->second.find(pk);
  if (chain_it == table_it->second.end()) return std::nullopt;
  const RowVersion* visible = VisibleIn(chain_it->second, snapshot_ts);
  if (visible == nullptr) return std::nullopt;
  return *visible;
}

std::map<Value, RowVersion> VersionStore::Overlay(
    const std::string& db_name, const std::string& table_name,
    const std::optional<Value>& lo, const std::optional<Value>& hi,
    uint64_t snapshot_ts) const {
  std::map<Value, RowVersion> overlay;
  platform::ReaderGuard lock(latch_);
  auto table_it = tables_.find({db_name, table_name});
  if (table_it == tables_.end()) return overlay;
  const auto& chains = table_it->second;
  auto it = lo ? chains.lower_bound(*lo) : chains.begin();
  auto end = hi ? chains.upper_bound(*hi) : chains.end();
  for (; it != end; ++it) {
    const RowVersion* visible = VisibleIn(it->second, snapshot_ts);
    if (visible != nullptr) overlay.emplace(it->first, *visible);
  }
  return overlay;
}

size_t VersionStore::PruneBelow(uint64_t watermark) {
  size_t pruned = 0;
  platform::WriterGuard lock(latch_);
  for (auto& [table_key, chains] : tables_) {
    for (auto& [pk, chain] : chains) {
      // Keep the newest version at or below the watermark (the floor every
      // surviving snapshot reads) and everything above it.
      size_t keep_from = 0;
      for (size_t i = 0; i < chain.size(); ++i) {
        if (chain[i].commit_ts <= watermark) keep_from = i;
      }
      if (keep_from > 0) {
        chain.erase(chain.begin(),
                    chain.begin() + static_cast<ptrdiff_t>(keep_from));
        pruned += keep_from;
      }
    }
  }
  if (pruned > 0) {
    live_.fetch_sub(static_cast<int64_t>(pruned), std::memory_order_relaxed);
  }
  return pruned;
}

VersionStore::Tables::iterator VersionStore::EraseLocked(
    Tables::iterator it) {
  int64_t dropped = 0;
  for (const auto& [pk, chain] : it->second) {
    dropped += static_cast<int64_t>(chain.size());
  }
  live_.fetch_sub(dropped, std::memory_order_relaxed);
  return tables_.erase(it);
}

void VersionStore::DropTable(const std::string& db_name,
                             const std::string& table_name) {
  platform::WriterGuard lock(latch_);
  auto it = tables_.find({db_name, table_name});
  if (it != tables_.end()) EraseLocked(it);
}

void VersionStore::DropDatabase(const std::string& db_name) {
  platform::WriterGuard lock(latch_);
  auto it = tables_.lower_bound({db_name, std::string()});
  while (it != tables_.end() && it->first.first == db_name) {
    it = EraseLocked(it);
  }
}

}  // namespace mtdb::mvcc
