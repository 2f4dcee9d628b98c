// Regenerates Figure 3: throughput with synchronous replication, TPC-W
// browsing mix, for the no-replication baseline and read Options 1/2/3.
//
// With --isolation=snapshot, runs the isolation ablation instead: strict 2PL
// vs MVCC snapshot reads on a contention-heavy browsing mix, printing its
// JSON report and exiting nonzero unless snapshot wins (CI gate).
#include <cstring>

#include "bench/snapshot_ablation.h"
#include "bench/throughput_figure.h"

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--isolation=snapshot") == 0) {
      return mtdb::bench::RunSnapshotAblation(
          "Figure 3", mtdb::workload::TpcwMix::kBrowsing);
    }
  }
  mtdb::bench::RunThroughputFigure("Figure 3",
                                   mtdb::workload::TpcwMix::kBrowsing);
  return 0;
}
