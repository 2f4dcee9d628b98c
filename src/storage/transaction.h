#ifndef MTDB_STORAGE_TRANSACTION_H_
#define MTDB_STORAGE_TRANSACTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/storage/value.h"

namespace mtdb {

enum class TxnState {
  kActive,
  kPrepared,
  kCommitted,
  kAborted,
};

std::string_view TxnStateName(TxnState state);

// One entry in a transaction's undo log. Applying the undo restores both the
// row image and its version number (legal because strict 2PL guarantees no
// other writer touched the row in between).
struct UndoRecord {
  enum class Type { kInsert, kUpdate, kDelete };
  Type type;
  std::string database;
  std::string table;
  Value primary_key;
  Row old_row;           // pre-image for kUpdate / kDelete
  // Version to restore: the row's for kUpdate / kDelete, and for kInsert
  // the version of the delete that had removed the key (0 if never written).
  uint64_t old_version;
};

// A read or write observation used for a-posteriori serializability checking:
// object id plus the row version seen (reads) or installed (writes).
struct VersionObservation {
  std::string object_id;
  uint64_t version;
};

// Engine-side transaction context. Owned by the engine; identified by a
// globally unique id assigned by whoever coordinates the transaction (the
// cluster controller in the full system, the test directly otherwise).
struct Transaction {
  uint64_t id = 0;
  TxnState state = TxnState::kActive;
  // Declared read-only at Begin: reads come from the MVCC snapshot at
  // snapshot_ts without touching the lock manager, and every write op is
  // rejected with kFailedPrecondition (DESIGN.md §13).
  bool read_only = false;
  uint64_t snapshot_ts = 0;
  std::vector<UndoRecord> undo_log;
  // Version observations, recorded only when the engine's record_history
  // option is set.
  std::vector<VersionObservation> reads;
  std::vector<VersionObservation> writes;
  // Count of row-level write operations (used by stats and by the cluster
  // controller to distinguish read-only transactions).
  int64_t write_ops = 0;
  int64_t read_ops = 0;
};

// The durable record of one committed transaction at one site, emitted into
// the engine's history log for the serializability checker.
struct CommittedTxnRecord {
  uint64_t txn_id = 0;
  // Committed in snapshot (read-only) mode: the DSG auditor uses this to
  // prove no G2 cycle ever routes through a declared read-only transaction.
  bool read_only = false;
  std::vector<VersionObservation> reads;
  std::vector<VersionObservation> writes;
};

}  // namespace mtdb

#endif  // MTDB_STORAGE_TRANSACTION_H_
