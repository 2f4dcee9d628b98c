#ifndef MTDB_TESTS_WAL_REPLAY_CHECK_H_
#define MTDB_TESTS_WAL_REPLAY_CHECK_H_

// A check shared by the copy-pipeline tests: a machine's log alone must
// rebuild what the machine holds.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/storage/engine.h"
#include "src/storage/wal/wal.h"

namespace mtdb {

// Recovers `live`'s log into a fresh engine and expects what `live` holds,
// database by database and table by table. `live` must be quiet.
inline void ExpectLogReplaysEngine(Engine* live) {
  ASSERT_NE(live->wal(), nullptr);
  ASSERT_TRUE(live->wal()->Sync().ok());
  Engine recovered("recovered");
  Status status = WriteAheadLog::Recover(live->wal()->path(), &recovered);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(recovered.DatabaseNames(), live->DatabaseNames());
  for (const std::string& db : live->DatabaseNames()) {
    std::vector<std::string> tables = live->GetDatabase(db)->TableNames();
    ASSERT_EQ(recovered.GetDatabase(db)->TableNames(), tables) << db;
    for (const std::string& name : tables) {
      Table* expected = live->GetDatabase(db)->GetTable(name);
      Table* actual = recovered.GetDatabase(db)->GetTable(name);
      EXPECT_EQ(actual->row_count(), expected->row_count())
          << db << "." << name;
      EXPECT_EQ(actual->ContentFingerprint(), expected->ContentFingerprint())
          << db << "." << name;
    }
  }
}

}  // namespace mtdb

#endif  // MTDB_TESTS_WAL_REPLAY_CHECK_H_
