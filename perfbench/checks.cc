#include "perfbench/checks.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "src/storage/dump.h"
#include "src/storage/wal/wal.h"

namespace perfbench {

namespace {

// Dump transactions run on quiescent engines; ids far above anything the
// controller mints keep them fresh.
uint64_t NextDumpTxnId() {
  static uint64_t next = uint64_t{1} << 60;
  return next++;
}

// The table's rows in a canonical order, versions dropped: replicas and a
// recovered engine may number versions differently but must hold the same
// values.
mtdb::Result<std::vector<mtdb::Row>> TableRows(mtdb::Engine* engine,
                                               const std::string& db,
                                               const std::string& table) {
  MTDB_ASSIGN_OR_RETURN(mtdb::TableDump dump,
                        mtdb::DumpTable(engine, db, table, NextDumpTxnId()));
  std::vector<mtdb::Row> rows;
  rows.reserve(dump.rows.size());
  for (auto& [row, version] : dump.rows) rows.push_back(std::move(row));
  std::sort(rows.begin(), rows.end(),
            [](const mtdb::Row& a, const mtdb::Row& b) {
              return std::lexicographical_compare(
                  a.begin(), a.end(), b.begin(), b.end(),
                  [](const mtdb::Value& x, const mtdb::Value& y) {
                    return x.Compare(y) < 0;
                  });
            });
  return rows;
}

std::vector<std::string> SortedTables(mtdb::Engine* engine,
                                      const std::string& db) {
  mtdb::Database* database = engine->GetDatabase(db);
  if (database == nullptr) return {};
  std::vector<std::string> tables = database->TableNames();
  std::sort(tables.begin(), tables.end());
  return tables;
}

// Compares every table of `db` on two engines.
void CompareDatabase(mtdb::Engine* a, mtdb::Engine* b, const std::string& db,
                     const std::string& what, CheckLog* log) {
  std::vector<std::string> tables = SortedTables(a, db);
  log->Expect(!tables.empty() && tables == SortedTables(b, db),
              what + ": table sets of " + db);
  for (const std::string& table : tables) {
    auto rows_a = TableRows(a, db, table);
    auto rows_b = TableRows(b, db, table);
    log->Expect(rows_a.ok() && rows_b.ok() && *rows_a == *rows_b,
                what + ": rows of " + db + "." + table);
  }
}

}  // namespace

void CheckLog::Expect(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++failures_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

void CheckReplicasAgree(mtdb::ClusterController* controller,
                        const std::vector<std::string>& tenants,
                        CheckLog* log) {
  for (const std::string& db : tenants) {
    std::vector<int> replicas = controller->ReplicasOf(db);
    log->Expect(replicas.size() >= 2, "replica count of " + db);
    if (replicas.empty()) continue;
    std::shared_ptr<mtdb::Engine> first =
        controller->machine(replicas[0])->engine();
    for (size_t r = 1; r < replicas.size(); ++r) {
      std::shared_ptr<mtdb::Engine> other =
          controller->machine(replicas[r])->engine();
      CompareDatabase(first.get(), other.get(), db, "replicas agree", log);
    }
  }
}

void CheckWalRecovery(mtdb::ClusterController* controller, CheckLog* log) {
  for (int id : controller->MachineIds()) {
    std::shared_ptr<mtdb::Engine> live = controller->machine(id)->engine();
    mtdb::WriteAheadLog* wal = live->wal();
    log->Expect(wal != nullptr, "machine " + std::to_string(id) + " has a WAL");
    if (wal == nullptr) continue;
    log->Expect(wal->Sync().ok(), "WAL sync on machine " + std::to_string(id));
    mtdb::Engine recovered("recovered-m" + std::to_string(id));
    log->Expect(mtdb::WriteAheadLog::Recover(wal->path(), &recovered).ok(),
                "WAL replay on machine " + std::to_string(id));
    std::vector<std::string> dbs = live->DatabaseNames();
    std::vector<std::string> recovered_dbs = recovered.DatabaseNames();
    std::sort(dbs.begin(), dbs.end());
    std::sort(recovered_dbs.begin(), recovered_dbs.end());
    log->Expect(dbs == recovered_dbs,
                "recovered databases on machine " + std::to_string(id));
    for (const std::string& db : dbs) {
      CompareDatabase(live.get(), &recovered, db,
                      "WAL recovery on machine " + std::to_string(id), log);
    }
  }
}

}  // namespace perfbench
