#ifndef MTDB_SQL_STATEMENT_CACHE_H_
#define MTDB_SQL_STATEMENT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/platform/mutex.h"
#include "src/sql/ast.h"

namespace mtdb::sql {

// Parsed statements shared by SQL text alone (DESIGN.md §9): a thousand
// tenants running the same application text share one immutable AST, so
// a tenant's re-registration or a plan-cache miss costs a lookup, not a
// parse. Each Engine and the ClusterController own one; nothing is
// process-global.
//
// Only '?'-parameterized texts are cached — the rule of the engine plan
// cache, since literal-bearing one-shot texts would only churn it — and a
// text that fails to parse is never cached. A hit takes the lock shared; a
// miss parses outside the lock and inserts under it. Past kCapacity texts
// an insert evicts one by CLOCK (second chance: a hit marks its entry, the
// hand spares a marked entry once). Entries are shared_ptr, so a statement
// evicted here lives on in every plan and caller that still holds it.
class StatementCache {
 public:
  static constexpr size_t kCapacity = 1024;

  StatementCache() = default;
  StatementCache(const StatementCache&) = delete;
  StatementCache& operator=(const StatementCache&) = delete;

  // The parse of `sql`: the cached AST when there is one, else a fresh
  // parse (cached if the text has a '?' and parsed). Racing misses on one
  // text share whichever parse was inserted first.
  Result<std::shared_ptr<const Statement>> Parse(const std::string& sql);

  size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<const Statement> stmt;
    // Set by a hit under the shared lock; the hand clears it.
    std::atomic<bool> referenced{false};
  };

  mutable platform::SharedMutex mu_{"sql/StatementCache::mu"};
  // Keyed by SQL text, not tenant: at most kCapacity entries, and each
  // insert past that erases the clock hand's victim.
  // mtdblint: allow(tenant-map)
  std::unordered_map<std::string, Entry> entries_ MTDB_GUARDED_BY(mu_);
  // The clock's slots: the keys of entries_ (map nodes never move).
  std::vector<const std::string*> clock_ MTDB_GUARDED_BY(mu_);
  size_t hand_ MTDB_GUARDED_BY(mu_) = 0;
};

}  // namespace mtdb::sql

#endif  // MTDB_SQL_STATEMENT_CACHE_H_
