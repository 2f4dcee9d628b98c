#include "src/cluster/machine.h"

#include "src/common/clock.h"
#include "src/common/logging.h"

namespace mtdb {

Machine::Machine(int id, MachineOptions options)
    : id_(id),
      name_(std::string("m").append(std::to_string(id))),
      options_(options) {
  engine_ = std::make_shared<Engine>(name_, options_.engine_options);
  if (options_.max_concurrent_ops > 0) {
    qos::WeightedFairQueue::Options queue_options;
    queue_options.permits = options_.max_concurrent_ops;
    queue_options.policy = options_.qos.queue_policy;
    queue_options.machine = name_;
    fair_queue_ = std::make_unique<qos::WeightedFairQueue>(queue_options);
  }
  admission_ = std::make_unique<qos::AdmissionController>(
      qos::AdmissionController::Options{.machine = name_});
  m_execute_us_ = obs::MetricsRegistry::Global().GetHistogram(
      "mtdb_qos_execute_us", {.machine = name_});
}

std::shared_ptr<Engine> Machine::engine() const {
  platform::Guard lock(engine_mu_);
  return engine_;
}

void Machine::Fail() { failed_.store(true, std::memory_order_release); }

void Machine::Recover() {
  platform::Guard lock(engine_mu_);
  // The replacement starts an empty log. In-flight work may still hold the
  // failed engine, whose log keeps writing into the discarded file.
  const std::string& wal_path = options_.engine_options.wal_path;
  if (!wal_path.empty()) {
    Status discarded = WriteAheadLog::Discard(wal_path);
    if (!discarded.ok()) {
      MTDB_LOG(kError) << name_ << ": " << discarded.ToString();
    }
  }
  engine_ = std::make_shared<Engine>(name_, options_.engine_options);
  failed_.store(false, std::memory_order_release);
}

qos::AdmitDecision Machine::AdmitBegin(const std::string& db) {
  return admission_->AdmitTxn(db, NowMicros());
}

void Machine::SetQuota(const std::string& db, const qos::QuotaSpec& spec) {
  admission_->SetQuota(db, spec);
  if (fair_queue_ != nullptr) fair_queue_->SetWeight(db, spec.weight);
}

qos::QuotaSpec Machine::GetQuota(const std::string& db) const {
  return admission_->GetQuota(db);
}

void Machine::RecordExecuteLatency(int64_t latency_us) {
  obs::Observe(m_execute_us_, latency_us);
}

}  // namespace mtdb
