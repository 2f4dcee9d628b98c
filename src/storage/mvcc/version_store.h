#ifndef MTDB_STORAGE_MVCC_VERSION_STORE_H_
#define MTDB_STORAGE_MVCC_VERSION_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/platform/mutex.h"
#include "src/storage/value.h"

namespace mtdb::mvcc {

// One entry in a row's version chain. `values == nullopt` is a tombstone:
// the row did not exist (or was deleted) as of `commit_ts`.
struct RowVersion {
  uint64_t commit_ts = 0;
  // The table's per-row version number for this image — the same number the
  // lock-manager path records into Transaction::reads/writes, so snapshot
  // reads produce DSG observations comparable with 2PL ones.
  uint64_t row_version = 0;
  std::optional<Row> values;
};

// Multi-version overlay of the live row store (DESIGN.md §13). Chains are
// append-only in commit-timestamp order and *authoritative*: once a key has
// a chain, snapshot readers never consult the live table for it (the live
// row may hold an uncommitted in-place image — writes are undo-based). The
// base version (commit_ts 0) is seeded by the first writer of a key
// *before* its in-place table mutation, while it holds the row X lock, so
// the committed pre-image is always reachable and there is no dirty window.
//
// Keys with no chain have never been written transactionally (bulk load
// only); their live value is committed by construction, and readers fall
// back to it.
class VersionStore {
 public:
  // Seed the chain base (pre-image, commit_ts 0) iff the key has no chain
  // yet. `values == nullopt` for a key that does not exist (insert path).
  // Returns true if this call created the chain.
  bool SeedBase(const std::string& db_name, const std::string& table_name,
                const Value& pk, std::optional<Row> values,
                uint64_t row_version);

  // Append a committed image. `commit_ts` must exceed every timestamp in
  // the chain (the engine serializes commits under its commit mutex).
  void Append(const std::string& db_name, const std::string& table_name,
              const Value& pk, uint64_t commit_ts, std::optional<Row> values,
              uint64_t row_version);

  // Visible version at `snapshot_ts` (newest commit_ts <= snapshot_ts), or
  // nullopt when the key has no chain — the caller falls back to the live
  // row. A present chain always yields a version: the base floor at ts 0 is
  // visible to every snapshot.
  std::optional<RowVersion> Get(const std::string& db_name,
                                const std::string& table_name, const Value& pk,
                                uint64_t snapshot_ts) const;

  // Visible version for every chained key of `db.table` with pk in
  // [lo, hi] (either bound optional). Scans merge this overlay with the
  // live rows: chained keys take the overlay image, unchained keys keep
  // their live value.
  std::map<Value, RowVersion> Overlay(const std::string& db_name,
                                      const std::string& table_name,
                                      const std::optional<Value>& lo,
                                      const std::optional<Value>& hi,
                                      uint64_t snapshot_ts) const;

  // Garbage collection: within every chain, drop versions strictly older
  // than the newest version at or below `watermark` (that one stays — it is
  // what snapshots at the watermark read). GC never drops a chain whole:
  // chain-presence is what shields readers from uncommitted live rows.
  // Returns the number of versions pruned.
  size_t PruneBelow(uint64_t watermark);

  // Drop every chain of one table, or of every table in one database, with
  // the table or database itself: a chain is authoritative over the live
  // row, so a re-created table must start without one.
  void DropTable(const std::string& db_name, const std::string& table_name);
  void DropDatabase(const std::string& db_name);

  // Total versions currently held across all chains.
  int64_t live_versions() const {
    return live_.load(std::memory_order_relaxed);
  }

 private:
  using Chain = std::vector<RowVersion>;  // ascending commit_ts
  using TableKey = std::pair<std::string, std::string>;
  using Tables = std::map<TableKey, std::map<Value, Chain>>;

  // Erases one table's chains, keeping live_ in step.
  Tables::iterator EraseLocked(Tables::iterator it) MTDB_REQUIRES(latch_);

  mutable platform::SharedMutex latch_{"storage/VersionStore::latch"};
  Tables tables_ MTDB_GUARDED_BY(latch_);
  std::atomic<int64_t> live_{0};
};

}  // namespace mtdb::mvcc

#endif  // MTDB_STORAGE_MVCC_VERSION_STORE_H_
