#include "src/sql/statement_cache.h"

#include <utility>

#include "src/sql/parser.h"

namespace mtdb::sql {

Result<std::shared_ptr<const Statement>> StatementCache::Parse(
    const std::string& sql) {
  const bool cacheable = sql.find('?') != std::string::npos;
  if (cacheable) {
    platform::ReaderGuard lock(mu_);
    auto it = entries_.find(sql);
    if (it != entries_.end()) {
      it->second.referenced.store(true, std::memory_order_relaxed);
      return it->second.stmt;
    }
  }
  MTDB_ASSIGN_OR_RETURN(Statement parsed, sql::Parse(sql));
  auto stmt = std::make_shared<const Statement>(std::move(parsed));
  if (!cacheable) return stmt;

  platform::WriterGuard lock(mu_);
  auto [it, inserted] = entries_.try_emplace(sql);
  if (!inserted) return it->second.stmt;
  it->second.stmt = stmt;
  if (clock_.size() < kCapacity) {
    clock_.push_back(&it->first);
    return stmt;
  }
  // Full: advance the hand past marked entries (clearing each mark) to the
  // first unmarked one; the new text takes that victim's slot.
  while (true) {
    auto victim = entries_.find(*clock_[hand_]);
    if (!victim->second.referenced.exchange(false,
                                            std::memory_order_relaxed)) {
      entries_.erase(victim);
      clock_[hand_] = &it->first;
      hand_ = (hand_ + 1) % kCapacity;
      return stmt;
    }
    hand_ = (hand_ + 1) % kCapacity;
  }
}

size_t StatementCache::size() const {
  platform::ReaderGuard lock(mu_);
  return entries_.size();
}

}  // namespace mtdb::sql
