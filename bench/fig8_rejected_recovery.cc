// Regenerates Figure 8: rejected transactions per database during recovery
// from a single machine failure, as a function of the number of recovery
// threads, for database-level vs table-level copying.
#include "bench/recovery_figure.h"

int main() {
  using mtdb::CopyGranularity;
  using namespace mtdb::bench;

  PrintHeader("Figure 8",
              "Rejected Transactions during Recovery (per database)");
  const int64_t workload_ms = BenchMs(2200, /*scale=*/3);
  const int thread_counts[] = {1, 2, 4};

  PrintRow({"copy granularity", "1 thread", "2 threads", "4 threads"});
  for (CopyGranularity granularity :
       {CopyGranularity::kTable, CopyGranularity::kDatabase}) {
    std::vector<std::string> row = {granularity == CopyGranularity::kTable
                                        ? "table-level"
                                        : "database-level"};
    for (int threads : thread_counts) {
      RecoveryRunStats stats = RunRecoveryExperiment(
          threads, granularity, /*per_row_delay_us=*/1500, workload_ms);
      row.push_back(Fmt(stats.rejected_per_db, 1) +
                    (stats.ok ? "" : "(!)"));
    }
    PrintRow(row);
  }
  std::printf(
      "expected shape: database-level copying rejects significantly more\n"
      "transactions than table-level copying (all tables locked out for the\n"
      "whole copy); contention among concurrent copies lengthens windows.\n");
  return 0;
}
