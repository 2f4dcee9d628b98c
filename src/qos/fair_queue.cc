#include "src/qos/fair_queue.h"

#include <algorithm>

#include "src/common/clock.h"

namespace mtdb::qos {

WeightedFairQueue::WeightedFairQueue(const Options& options)
    : options_(options), free_(std::max(1, options.permits)) {
  if (!options_.machine.empty()) {
    auto& registry = obs::MetricsRegistry::Global();
    m_depth_ = registry.GetGauge("mtdb_qos_queue_depth",
                                 {.machine = options_.machine});
    m_wait_us_ = registry.GetHistogram("mtdb_qos_queue_wait_us",
                                       {.machine = options_.machine});
  }
}

uint64_t WeightedFairQueue::Enter(const std::string& db) {
  platform::UniqueLock lock(mu_);
  uint64_t seq = next_seq_++;
  // Fast path: a free slot and nobody parked ahead of us.
  if (free_ > 0 && waiting_ == 0) {
    --free_;
    ++in_use_;
    return seq;
  }

  // Under FIFO policy every waiter shares one tenant queue, which reproduces
  // the pre-QoS semaphore handoff exactly.
  const std::string& key =
      options_.policy == Policy::kFifo ? std::string() : db;
  Waiter waiter;
  waiter.seq = seq;
  Tenant& tenant = tenants_[key];
  if (tenant.waiters.empty()) active_.push_back(key);
  tenant.waiters.push_back(&waiter);
  ++waiting_;
  obs::GaugeAdd(m_depth_, 1);

  int64_t parked_at_us = NowMicros();
  // Free slots can coexist with parked waiters (fairness keeps the fast
  // path from stealing ahead), so run a grant round before parking — and
  // wake any *other* waiter it may have granted.
  if (GrantLocked()) cv_.NotifyAll();
  while (!waiter.granted) cv_.Wait(lock);
  obs::Observe(m_wait_us_, NowMicros() - parked_at_us);
  return seq;
}

void WeightedFairQueue::Leave() {
  bool granted;
  {
    platform::Guard lock(mu_);
    ++free_;
    --in_use_;
    granted = GrantLocked();
  }
  if (granted) cv_.NotifyAll();
}

bool WeightedFairQueue::GrantLocked() {
  bool any = false;
  while (free_ > 0 && waiting_ > 0) {
    if (rr_ >= active_.size()) rr_ = 0;
    auto tenant_it = tenants_.find(active_[rr_]);
    Tenant& tenant = tenant_it->second;
    // Deficit round robin with unit cost: a tenant's deficit is replenished
    // by its weight once per *visit*, then spent one slot per grant. A visit
    // spans multiple GrantLocked calls when slots free up one at a time
    // (permits exhausted mid-service must not re-replenish, or every Leave
    // would hand one replenish-and-grant to each tenant in turn and weights
    // would cancel out). weight >= 1 guarantees progress per visit.
    if (!mid_visit_) {
      tenant.deficit += std::max(1, tenant.weight);
      mid_visit_ = true;
    }
    while (tenant.deficit > 0 && free_ > 0 && !tenant.waiters.empty()) {
      Waiter* waiter = tenant.waiters.front();
      tenant.waiters.pop_front();
      waiter->granted = true;
      --tenant.deficit;
      --free_;
      ++in_use_;
      --waiting_;
      obs::GaugeAdd(m_depth_, -1);
      any = true;
    }
    if (tenant.waiters.empty()) {
      // An idle tenant keeps no credit: deficit accrual only spans one
      // backlogged period, so a tenant cannot bank slots while idle. At the
      // default weight that leaves nothing worth keeping.
      tenant.deficit = 0;
      if (tenant.weight == kDefaultWeight) tenants_.erase(tenant_it);
      active_.erase(active_.begin() + static_cast<ptrdiff_t>(rr_));
      if (rr_ >= active_.size()) rr_ = 0;
      mid_visit_ = false;
    } else if (tenant.deficit <= 0) {
      ++rr_;
      mid_visit_ = false;
    } else {
      // Out of free slots with credit left: the visit resumes here on the
      // next Leave.
      break;
    }
  }
  return any;
}

void WeightedFairQueue::SetWeight(const std::string& db, int weight) {
  platform::Guard lock(mu_);
  if (options_.policy == Policy::kFifo) return;
  auto it = tenants_.try_emplace(db).first;
  it->second.weight = std::max(1, weight);
  if (it->second.weight == kDefaultWeight && it->second.waiters.empty()) {
    tenants_.erase(it);
  }
}

size_t WeightedFairQueue::tenant_count() const {
  platform::Guard lock(mu_);
  return tenants_.size();
}

size_t WeightedFairQueue::queue_depth() const {
  platform::Guard lock(mu_);
  return waiting_;
}

int WeightedFairQueue::in_use() const {
  platform::Guard lock(mu_);
  return in_use_;
}

}  // namespace mtdb::qos
