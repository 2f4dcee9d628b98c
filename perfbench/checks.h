// End-of-run correctness checks of the platform benchmark.
#ifndef MTDB_PERFBENCH_CHECKS_H_
#define MTDB_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/cluster_controller.h"

namespace perfbench {

// Collects check outcomes; a run is correct only if every check passed.
class CheckLog {
 public:
  void Expect(bool ok, const std::string& what);
  bool all_passed() const { return failures_ == 0; }
  int checks() const { return checks_; }

 private:
  int checks_ = 0;
  int failures_ = 0;
};

// Every table of every tenant reads the same on each of its replicas.
void CheckReplicasAgree(mtdb::ClusterController* controller,
                        const std::vector<std::string>& tenants,
                        CheckLog* log);

// Replays each machine's WAL into a fresh engine; every database and table
// must equal the live engine's.
void CheckWalRecovery(mtdb::ClusterController* controller, CheckLog* log);

}  // namespace perfbench

#endif  // MTDB_PERFBENCH_CHECKS_H_
