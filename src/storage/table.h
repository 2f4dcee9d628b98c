#ifndef MTDB_STORAGE_TABLE_H_
#define MTDB_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/platform/mutex.h"
#include "src/storage/schema.h"
#include "src/storage/value.h"

namespace mtdb {

// A row as stored: values plus the per-object version used by the
// serializability checker.
struct StoredRow {
  Row values;
  uint64_t version = 0;
};

// In-memory row store: an ordered map keyed by primary key, with optional
// non-unique secondary indexes. Physical access is protected by an internal
// latch (shared_mutex); *logical* isolation is the lock manager's job — the
// table itself performs no transaction locking.
class Table {
 public:
  explicit Table(TableSchema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }
  // Schema mutation (CREATE INDEX) — caller must guarantee exclusivity.
  Status AddIndex(const std::string& index_name,
                  const std::string& column_name);

  // Returns a copy of the stored row, if present.
  std::optional<StoredRow> Get(const Value& pk) const;

  // Physical mutations. Callers hold the appropriate logical locks. All
  // return false when the precondition fails (duplicate insert / missing
  // update target).
  bool Insert(const Row& row, uint64_t version);
  bool Update(const Value& pk, const Row& row, uint64_t version);
  bool Delete(const Value& pk, uint64_t tombstone_version);

  // Calls visit(pk, stored) for each row whose PK lies in [lo, hi] (either
  // bound optional; an empty range when lo > hi), in PK order, until it
  // returns false. Runs under the table's read latch and hands out rows in
  // place, so `visit` must not block or call back into this table; a caller
  // that needs a row afterwards copies it.
  template <typename Visit>
  void VisitRange(const std::optional<Value>& lo,
                  const std::optional<Value>& hi, Visit&& visit) const {
    if (lo.has_value() && hi.has_value() && *hi < *lo) return;
    platform::ReaderGuard lock(latch_);
    auto it = lo.has_value() ? rows_.lower_bound(*lo) : rows_.begin();
    auto end = hi.has_value() ? rows_.upper_bound(*hi) : rows_.end();
    for (; it != end; ++it) {
      if (!visit(it->first, it->second)) return;
    }
  }

  // Primary keys of rows whose `column_index` equals `key`, via the secondary
  // index on that column. Status error if no such index exists.
  Result<std::vector<Value>> IndexLookup(int column_index,
                                         const Value& key) const;

  // Fresh version for a write to this table. Monotonic per table, which makes
  // versions monotonic per row.
  uint64_t NextVersion() { return version_counter_.fetch_add(1) + 1; }
  // Ensures future NextVersion() results exceed `version`. Called when rows
  // with explicit versions are installed (dump application), preserving
  // per-object version monotonicity on the new replica.
  void AdvanceVersionCounter(uint64_t version) {
    uint64_t current = version_counter_.load();
    while (current < version &&
           !version_counter_.compare_exchange_weak(current, version)) {
    }
  }
  // Last version consumed for a given pk even if the row is deleted (read-miss
  // observation); 0 if never written.
  uint64_t LastVersion(const Value& pk) const;

  size_t row_count() const;
  // Approximate bytes of row data (for database sizing / SLA profiling).
  size_t byte_size() const;

  // Order-insensitive hash of (pk, values) pairs, ignoring versions. Two
  // replicas of a table are content-equal iff fingerprints match (w.h.p.).
  uint64_t ContentFingerprint() const;

 private:
  void IndexInsertLocked(const Value& pk, const Row& row)
      MTDB_REQUIRES(latch_);
  void IndexEraseLocked(const Value& pk, const Row& row)
      MTDB_REQUIRES(latch_);

  TableSchema schema_;
  // Leaf latch on the hottest path (every row access): lock-order tracking
  // is off (nullptr graph) because table latches never nest under anything
  // and per-access lockdep bookkeeping would dominate sanitizer runs.
  mutable platform::SharedMutex latch_{"storage/Table::latch", nullptr};
  std::map<Value, StoredRow> rows_ MTDB_GUARDED_BY(latch_);
  // One multimap per secondary index, parallel to schema_.indexes().
  std::vector<std::multimap<Value, Value>> index_data_ MTDB_GUARDED_BY(latch_);
  // pk -> last version consumed, surviving deletes.
  std::map<Value, uint64_t> last_versions_ MTDB_GUARDED_BY(latch_);
  std::atomic<uint64_t> version_counter_{0};
  std::atomic<size_t> byte_size_{0};
};

}  // namespace mtdb

#endif  // MTDB_STORAGE_TABLE_H_
