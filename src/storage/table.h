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

// One committed image of a row in its version chain (DESIGN.md §13).
// `values == nullopt` is a tombstone: the row did not exist as of
// `commit_ts`.
struct RowVersion {
  uint64_t commit_ts = 0;
  // The row's version number for this image: the number the locking path
  // records into Transaction::reads/writes, so snapshot reads produce DSG
  // observations comparable with 2PL ones.
  uint64_t row_version = 0;
  std::optional<Row> values;
};

// In-memory row store: an ordered map keyed by primary key, with optional
// non-unique secondary indexes, and beside it a sparse map of what a key
// remembers beyond its live row: a deleted key's tombstone version, and
// the committed images an open snapshot may still read (DESIGN.md §13).
// Physical access is protected by an internal latch (shared_mutex);
// *logical* isolation is the lock manager's job — the table itself
// performs no transaction locking.
class Table {
 public:
  // `versions_live` counts the chain versions of every table that shares
  // it; a table's versions leave the count as they go, and with the table.
  Table(TableSchema schema, std::atomic<int64_t>* versions_live);
  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }
  // Schema mutation (CREATE INDEX) — caller must guarantee exclusivity.
  Status AddIndex(const std::string& index_name,
                  const std::string& column_name);

  // Returns a copy of the stored row, if present.
  std::optional<StoredRow> Get(const Value& pk) const;

  // Physical mutations. Callers hold the appropriate logical locks. All
  // return false, changing nothing, when the precondition fails (duplicate
  // insert / missing update or delete target). A transaction's write passes
  // `pre`: in the same latch section the mutation then seeds pk's version
  // chain with the committed pre-image, unless pk has a chain, and moves
  // the pre-image into *pre for the undo log (an insert's has no values and
  // the version of the delete that removed pk, 0 if none). Bulk loads,
  // redo and undo pass none and leave the chains alone. A delete leaves
  // `tombstone_version` as pk's last version; undo passes 0 to restore a
  // never-written key.
  bool Insert(const Row& row, uint64_t version, StoredRow* pre = nullptr);
  bool Update(const Value& pk, const Row& row, uint64_t version,
              StoredRow* pre = nullptr);
  bool Delete(const Value& pk, uint64_t tombstone_version,
              StoredRow* pre = nullptr);

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

  // --- MVCC (DESIGN.md §13) ---
  // What a snapshot at `snapshot_ts` reads for pk: the visible image with
  // its row version. No values when pk did not exist then; the version is
  // then its delete's (0 if never written).
  RowVersion GetAt(const Value& pk, uint64_t snapshot_ts) const;

  // VisitRange as a snapshot at `snapshot_ts` sees the table: calls
  // visit(pk, values, row_version) in place, under the read latch, for the
  // live rows, with a chained key's visible image in place of its live row
  // or its absence. Same contract for `visit` as VisitRange.
  template <typename Visit>
  void VisitRangeAt(const std::optional<Value>& lo,
                    const std::optional<Value>& hi, uint64_t snapshot_ts,
                    Visit&& visit) const {
    if (lo.has_value() && hi.has_value() && *hi < *lo) return;
    platform::ReaderGuard lock(latch_);
    auto row = lo.has_value() ? rows_.lower_bound(*lo) : rows_.begin();
    auto row_end = hi.has_value() ? rows_.upper_bound(*hi) : rows_.end();
    auto key = lo.has_value() ? history_.lower_bound(*lo) : history_.begin();
    auto key_end = hi.has_value() ? history_.upper_bound(*hi) : history_.end();
    while (row != row_end || key != key_end) {
      if (key == key_end || (row != row_end && row->first < key->first)) {
        if (!visit(row->first, row->second.values, row->second.version)) {
          return;
        }
        ++row;
        continue;
      }
      const bool live = row != row_end && row->first == key->first;
      const RowVersion* version = VisibleAt(key->second.chain, snapshot_ts);
      if (version != nullptr) {
        if (version->values.has_value() &&
            !visit(key->first, *version->values, version->row_version)) {
          return;
        }
      } else if (live &&
                 !visit(row->first, row->second.values, row->second.version)) {
        return;
      }
      if (live) ++row;
      ++key;
    }
  }

  // A commit, before publishing `commit_ts`: appends pk's live image (its
  // row, or its absence) to pk's chain at `commit_ts`. Once per commit,
  // and not at all for a key with no chain.
  void AppendCommitted(const Value& pk, uint64_t commit_ts);
  // Drops the versions of pk's chain that no snapshot at or above
  // `watermark` reads (all older than the newest at or below it), then the
  // chain itself once what is left is the image the live entry shows.
  // Returns the versions dropped.
  size_t Settle(const Value& pk, uint64_t watermark);
  // Settle for every chain of the table.
  size_t SettleAll(uint64_t watermark);

  // Primary keys of rows whose `column_index` equals `key`, via the secondary
  // index on that column. Status error if no such index exists.
  Result<std::vector<Value>> IndexLookup(int column_index,
                                         const Value& key) const;

  // Fresh version for a write to this table. Monotonic per table, which makes
  // versions monotonic per row.
  uint64_t NextVersion() { return version_counter_.fetch_add(1) + 1; }
  // The version a read of pk observes: its row's, or, with no row, the
  // version of the delete that removed it (read-miss observation); 0 if
  // never written.
  uint64_t LastVersion(const Value& pk) const;

  size_t row_count() const;

  // Order-insensitive hash of (pk, values) pairs, ignoring versions. Two
  // replicas of a table are content-equal iff fingerprints match (w.h.p.).
  uint64_t ContentFingerprint() const;

 private:
  // What a key remembers beyond its live row. A live row with nothing to
  // remember has no entry.
  struct History {
    // Committed images, ascending commit_ts, that a snapshot may read. Kept
    // only while a writer holds the key or an open snapshot may read an
    // image older than the live one; while kept, it decides every snapshot
    // read of the key, since the live row may hold a writer's image.
    std::vector<RowVersion> chain;
    // While the key has no live row: the version of the delete that
    // removed it.
    uint64_t tombstone = 0;
  };
  using HistoryMap = std::map<Value, History>;

  // Newest version of `chain` at or below `snapshot_ts`, or null.
  static const RowVersion* VisibleAt(const std::vector<RowVersion>& chain,
                                     uint64_t snapshot_ts) {
    const RowVersion* visible = nullptr;
    for (const RowVersion& version : chain) {
      if (version.commit_ts > snapshot_ts) break;
      visible = &version;
    }
    return visible;
  }

  void IndexInsertLocked(const Value& pk, const Row& row)
      MTDB_REQUIRES(latch_);
  void IndexEraseLocked(const Value& pk, const Row& row)
      MTDB_REQUIRES(latch_);
  // LastVersion under the latch.
  uint64_t LastVersionLocked(const Value& pk) const MTDB_REQUIRES(latch_);
  // Seeds `history`'s chain at ts 0 with the committed image, `live` or
  // absence at `tombstone`, unless it has a chain.
  void SeedLocked(History& history, const StoredRow* live, uint64_t tombstone)
      MTDB_REQUIRES(latch_);
  // Settle for one entry; erases the entry once it remembers nothing.
  size_t SettleLocked(HistoryMap::iterator entry, uint64_t watermark)
      MTDB_REQUIRES(latch_);
  // Erases the entry once it remembers nothing.
  void EraseIfIdleLocked(HistoryMap::iterator entry) MTDB_REQUIRES(latch_);
  void CountVersionsLocked(int64_t delta) MTDB_REQUIRES(latch_);

  TableSchema schema_;
  // Leaf latch on the hottest path (every row access): lock-order tracking
  // is off (nullptr graph) because table latches never nest under anything
  // and per-access lockdep bookkeeping would dominate sanitizer runs.
  mutable platform::SharedMutex latch_{"storage/Table::latch", nullptr};
  std::map<Value, StoredRow> rows_ MTDB_GUARDED_BY(latch_);
  // One multimap per secondary index, parallel to schema_.indexes().
  std::vector<std::multimap<Value, Value>> index_data_ MTDB_GUARDED_BY(latch_);
  HistoryMap history_ MTDB_GUARDED_BY(latch_);
  // Versions in this table's chains; read unlatched to skip a table with
  // none.
  std::atomic<int64_t> versions_{0};
  std::atomic<int64_t>* const versions_live_;
  std::atomic<uint64_t> version_counter_{0};
};

}  // namespace mtdb

#endif  // MTDB_STORAGE_TABLE_H_
