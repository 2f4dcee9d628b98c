#ifndef MTDB_SLA_SLA_H_
#define MTDB_SLA_SLA_H_

#include <string>

#include "src/common/resource.h"

namespace mtdb::sla {

// A database SLA, per Section 4.1 of the paper:
//  1. a minimum throughput (transactions per second) over a period T, and
//  2. a maximum fraction of proactively rejected transactions over T
//     (rejections caused by recovery/migration copying, not by inherent
//     application behaviour such as deadlocks).
struct Sla {
  double min_throughput_tps = 1.0;
  double max_rejected_fraction = 0.01;
  double period_seconds = 24 * 3600;
};

// Inputs to the availability constraint for one database.
struct AvailabilityParams {
  // Expected machine failures affecting this database per period T.
  double machine_failure_rate = 0.0;
  // Replica moves per period T for maintenance/reorganization.
  double reallocation_rate = 0.0;
  // Seconds needed to copy the database during recovery.
  double recovery_time_seconds = 0.0;
  // Fraction of update transactions in the workload.
  double write_mix = 0.0;
};

// The paper's availability inequality, left-hand side:
//   (failure_rate + reallocation_rate) * (recovery_time / T) * write_mix
// This is the expected fraction of transactions proactively rejected due to
// copy windows.
double ExpectedRejectedFraction(const AvailabilityParams& params,
                                double period_seconds);

// True when the expected rejected fraction stays below the SLA bound.
bool SatisfiesAvailability(const Sla& sla, const AvailabilityParams& params);

// Coefficients mapping an observed (size, throughput) profile to a resource
// requirement vector r[j]. Defaults are the calibration used throughout the
// benchmarks; DESIGN.md documents the model.
struct ProfileModel {
  double cpu_per_tps = 12.0;       // cpu units consumed per sustained tps
  double cpu_base = 1.0;
  double memory_per_mb = 0.25;     // resident hot set fraction
  double memory_base_mb = 24.0;
  double disk_per_mb = 1.0;        // on-disk footprint per data MB
  double io_per_tps = 4.0;         // disk ops per transaction
};

// Analytic requirement estimate from a database's size and throughput SLA.
ResourceVector EstimateRequirement(double size_mb, double throughput_tps,
                                   const ProfileModel& model = ProfileModel());

}  // namespace mtdb::sla

#endif  // MTDB_SLA_SLA_H_
