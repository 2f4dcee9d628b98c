// Regenerates Figure 6: deadlock rate for different database sizes, TPC-W
// browsing mix.
//
// With --isolation=snapshot, runs the isolation ablation instead: the
// lock-victim abort column shows snapshot reads retiring the browse side's
// deadlock/timeout retries (writers keep strict 2PL).
#include <cstring>

#include "bench/deadlock_figure.h"
#include "bench/snapshot_ablation.h"

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--isolation=snapshot") == 0) {
      return mtdb::bench::RunSnapshotAblation(
          "Figure 6", mtdb::workload::TpcwMix::kBrowsing);
    }
  }
  mtdb::bench::RunDeadlockFigure("Figure 6",
                                 mtdb::workload::TpcwMix::kBrowsing);
  return 0;
}
