#include "src/sla/sla.h"

namespace mtdb::sla {

double ExpectedRejectedFraction(const AvailabilityParams& params,
                                double period_seconds) {
  if (period_seconds <= 0) return 0.0;
  return (params.machine_failure_rate + params.reallocation_rate) *
         (params.recovery_time_seconds / period_seconds) * params.write_mix;
}

bool SatisfiesAvailability(const Sla& sla, const AvailabilityParams& params) {
  return ExpectedRejectedFraction(params, sla.period_seconds) <
         sla.max_rejected_fraction;
}

ResourceVector EstimateRequirement(double size_mb, double throughput_tps,
                                   const ProfileModel& model) {
  return ResourceVector(
      model.cpu_base + model.cpu_per_tps * throughput_tps,
      model.memory_base_mb + model.memory_per_mb * size_mb,
      model.disk_per_mb * size_mb,
      model.io_per_tps * throughput_tps);
}

}  // namespace mtdb::sla
