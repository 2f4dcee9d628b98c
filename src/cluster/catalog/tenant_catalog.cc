#include "src/cluster/catalog/tenant_catalog.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/clock.h"

namespace mtdb::catalog {

namespace {

size_t RoundUpPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Where a sweep for either cap stops: ~90% of the cap, so one sweep's scan
// and sort buy many pins or registrations before the next.
size_t LowWater(size_t cap) { return cap - cap / 10; }

constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();

}  // namespace

TenantCatalog::TenantCatalog() : TenantCatalog(Options()) {}

TenantCatalog::TenantCatalog(Options options) : options_(options) {
  size_t shards = RoundUpPowerOfTwo(std::max<size_t>(options_.shards, 1));
  shard_mask_ = shards - 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  auto& registry = obs::MetricsRegistry::Global();
  obs::MetricLabels labels{.machine = options_.name};
  m_tenants_ = registry.GetGauge("mtdb_catalog_tenants", labels);
  m_resident_ = registry.GetGauge("mtdb_catalog_resident", labels);
  m_prepared_ = registry.GetGauge("mtdb_catalog_prepared", labels);
  m_evictions_ = registry.GetCounter("mtdb_catalog_evictions_total", labels);
  m_reloads_ = registry.GetCounter("mtdb_catalog_reloads_total", labels);
  m_prepared_evicted_ =
      registry.GetCounter("mtdb_prepared_evicted", labels);
}

TenantCatalog::~TenantCatalog() = default;

TenantCatalog::Shard& TenantCatalog::ShardFor(const std::string& name) const {
  return *shards_[std::hash<std::string>{}(name) & shard_mask_];
}

// --- Lifecycle ---

Status TenantCatalog::Reserve(const std::string& name) {
  Shard& shard = ShardFor(name);
  platform::Guard lock(shard.mu);
  if (shard.tenants.count(name) > 0) {
    return Status::AlreadyExists("database " + name);
  }
  auto entry = std::make_unique<Entry>();
  entry->reserved = true;
  shard.tenants.emplace(name, std::move(entry));
  return Status::OK();
}

void TenantCatalog::Install(const std::string& name, TenantRecord record) {
  Shard& shard = ShardFor(name);
  platform::Guard lock(shard.mu);
  auto it = shard.tenants.find(name);
  if (it == shard.tenants.end()) {
    it = shard.tenants.emplace(name, std::make_unique<Entry>()).first;
  } else if (!it->second->reserved) {
    // Already installed: overwrite the record, keep resident state/pins.
    it->second->record = std::move(record);
    return;
  }
  it->second->record = std::move(record);
  it->second->reserved = false;
  it->second->last_active_us = NowMicros();
  m_tenants_->Set(tenant_count_.fetch_add(1, std::memory_order_relaxed) + 1);
}

void TenantCatalog::AbortReserve(const std::string& name) {
  Shard& shard = ShardFor(name);
  platform::Guard lock(shard.mu);
  auto it = shard.tenants.find(name);
  if (it != shard.tenants.end() && it->second->reserved) {
    shard.tenants.erase(it);
  }
}

Status TenantCatalog::Erase(const std::string& name) {
  std::unique_ptr<Entry> detached;
  {
    Shard& shard = ShardFor(name);
    platform::Guard lock(shard.mu);
    auto it = shard.tenants.find(name);
    if (it == shard.tenants.end() || it->second->reserved) {
      return Status::NotFound("database " + name);
    }
    detached = std::move(it->second);
    shard.tenants.erase(it);
    m_tenants_->Set(tenant_count_.fetch_sub(1, std::memory_order_relaxed) -
                    1);
    if (detached->prepared != nullptr) {
      m_resident_->Set(
          resident_count_.fetch_sub(1, std::memory_order_relaxed) - 1);
      int64_t dropped = static_cast<int64_t>(detached->prepared->size());
      m_prepared_->Set(
          prepared_count_.fetch_sub(dropped, std::memory_order_relaxed) -
          dropped);
    }
    // A pin held across Erase (transaction racing a DropDatabase) becomes a
    // stale unpin: Unpin tolerates the missing entry, so balance the pinned
    // counter here.
    pinned_count_.fetch_sub(detached->pins, std::memory_order_relaxed);
  }
  // Entry (and its prepared registrations) destroyed outside the shard lock.
  return Status::OK();
}

bool TenantCatalog::Contains(const std::string& name) const {
  Shard& shard = ShardFor(name);
  platform::Guard lock(shard.mu);
  return shard.tenants.count(name) > 0;
}

size_t TenantCatalog::tenant_count() const {
  return static_cast<size_t>(tenant_count_.load(std::memory_order_relaxed));
}

std::vector<std::string> TenantCatalog::Names() const {
  std::vector<std::string> names;
  names.reserve(tenant_count());
  for (const auto& shard : shards_) {
    platform::Guard lock(shard->mu);
    for (const auto& [name, entry] : shard->tenants) {
      if (!entry->reserved) names.push_back(name);
    }
  }
  return names;
}

// --- Record access ---

Status TenantCatalog::With(const std::string& name,
                           const std::function<void(TenantRecord&)>& fn) {
  Shard& shard = ShardFor(name);
  platform::Guard lock(shard.mu);
  auto it = shard.tenants.find(name);
  if (it == shard.tenants.end() || it->second->reserved) {
    return Status::NotFound("database " + name);
  }
  fn(it->second->record);
  return Status::OK();
}

Status TenantCatalog::With(
    const std::string& name,
    const std::function<void(const TenantRecord&)>& fn) const {
  Shard& shard = ShardFor(name);
  platform::Guard lock(shard.mu);
  auto it = shard.tenants.find(name);
  if (it == shard.tenants.end() || it->second->reserved) {
    return Status::NotFound("database " + name);
  }
  fn(it->second->record);
  return Status::OK();
}

// --- Pins ---

TenantCatalog::TenantRef& TenantCatalog::TenantRef::operator=(
    TenantRef&& other) noexcept {
  if (this != &other) {
    Release();
    catalog_ = other.catalog_;
    tenant_ = std::move(other.tenant_);
    other.catalog_ = nullptr;
  }
  return *this;
}

void TenantCatalog::TenantRef::Release() {
  if (catalog_ != nullptr) {
    catalog_->Unpin(tenant_);
    catalog_ = nullptr;
  }
}

TenantCatalog::TenantRef TenantCatalog::AcquireForTxn(const std::string& name,
                                                      bool* cutover) {
  *cutover = false;
  {
    Shard& shard = ShardFor(name);
    platform::Guard lock(shard.mu);
    auto it = shard.tenants.find(name);
    if (it == shard.tenants.end() || it->second->reserved) return TenantRef();
    Entry& entry = *it->second;
    if (entry.record.copy.cutover) {
      // Frozen: no new pins, so the replica builder's drain converges. The
      // caller backs off and retries; the window is milliseconds.
      *cutover = true;
      return TenantRef();
    }
    entry.pins++;
    pinned_count_.fetch_add(1, std::memory_order_relaxed);
    entry.last_active_us = NowMicros();
    MaterializeLocked(entry);
  }
  MaybeEvict();
  return TenantRef(this, name);
}

int64_t TenantCatalog::PinCount(const std::string& name) const {
  Shard& shard = ShardFor(name);
  platform::Guard lock(shard.mu);
  auto it = shard.tenants.find(name);
  return it == shard.tenants.end() ? 0 : it->second->pins;
}

void TenantCatalog::Unpin(const std::string& name) {
  Shard& shard = ShardFor(name);
  platform::Guard lock(shard.mu);
  auto it = shard.tenants.find(name);
  if (it == shard.tenants.end()) return;  // dropped while pinned; see Erase
  Entry& entry = *it->second;
  if (entry.pins > 0) {
    entry.pins--;
    pinned_count_.fetch_sub(1, std::memory_order_relaxed);
    entry.last_active_us = NowMicros();
  }
}

void TenantCatalog::MaterializeLocked(Entry& entry) {
  if (entry.prepared != nullptr) return;
  entry.prepared = std::make_unique<PreparedMap>();
  m_resident_->Set(resident_count_.fetch_add(1, std::memory_order_relaxed) +
                   1);
  if (entry.ever_resident) {
    reloads_.fetch_add(1, std::memory_order_relaxed);
    obs::Increment(m_reloads_);
  }
  entry.ever_resident = true;
}

// --- Prepared registry ---

std::shared_ptr<PreparedStatement> TenantCatalog::FindPrepared(
    const std::string& tenant, const std::string& sql) {
  Shard& shard = ShardFor(tenant);
  platform::Guard lock(shard.mu);
  auto it = shard.tenants.find(tenant);
  if (it == shard.tenants.end() || it->second->reserved ||
      it->second->prepared == nullptr) {
    return nullptr;
  }
  Entry& entry = *it->second;
  auto slot_it = entry.prepared->find(sql);
  if (slot_it == entry.prepared->end()) return nullptr;
  int64_t now_us = NowMicros();
  slot_it->second.last_use_us = now_us;
  entry.last_active_us = now_us;
  return slot_it->second.stmt;
}

std::shared_ptr<PreparedStatement> TenantCatalog::InternPrepared(
    const std::string& tenant, const std::string& sql,
    std::shared_ptr<PreparedStatement> stmt) {
  std::shared_ptr<PreparedStatement> winner;
  {
    Shard& shard = ShardFor(tenant);
    platform::Guard lock(shard.mu);
    auto it = shard.tenants.find(tenant);
    if (it == shard.tenants.end() || it->second->reserved) {
      // Unknown tenant: hand the statement back unregistered. It executes
      // normally; it just will not be found by the next Prepare.
      return stmt;
    }
    Entry& entry = *it->second;
    int64_t now_us = NowMicros();
    entry.last_active_us = now_us;
    MaterializeLocked(entry);
    auto [slot_it, inserted] = entry.prepared->try_emplace(sql);
    if (!inserted) {
      // Racing preparers of the same text share whichever instance won.
      slot_it->second.last_use_us = now_us;
      return slot_it->second.stmt;
    }
    slot_it->second.stmt = std::move(stmt);
    slot_it->second.last_use_us = now_us;
    winner = slot_it->second.stmt;
    m_prepared_->Set(prepared_count_.fetch_add(1, std::memory_order_relaxed) +
                     1);
    // Per-tenant cap: a tenant churning distinct texts evicts its own LRU
    // registration, never other tenants' state.
    if (entry.prepared->size() > options_.max_prepared_per_tenant) {
      auto lru = entry.prepared->begin();
      for (auto probe = entry.prepared->begin(); probe != entry.prepared->end();
           ++probe) {
        if (probe->second.last_use_us < lru->second.last_use_us) lru = probe;
      }
      entry.prepared->erase(lru);
      m_prepared_->Set(prepared_count_.fetch_sub(1, std::memory_order_relaxed) -
                       1);
      prepared_evicted_.fetch_add(1, std::memory_order_relaxed);
      obs::Increment(m_prepared_evicted_);
    }
  }
  // Global cap: one sweep sheds whole idle tenants (their registrations are
  // the bulk of resident memory), oldest first, down to the low-water mark.
  if (prepared_count() > options_.max_prepared) {
    Sweep(kNoLimit, LowWater(options_.max_prepared));
  }
  return winner;
}

// --- Eviction ---

void TenantCatalog::MaybeEvict() {
  if (resident_count_.load(std::memory_order_relaxed) <=
      static_cast<int64_t>(options_.max_resident)) {
    return;
  }
  Sweep(LowWater(options_.max_resident), kNoLimit);
}

size_t TenantCatalog::EvictResidentDownTo(size_t target) {
  return Sweep(target, kNoLimit);
}

size_t TenantCatalog::Sweep(size_t max_resident, size_t max_prepared) {
  auto done = [&] {
    return resident_count() <= max_resident &&
           prepared_count() <= max_prepared;
  };
  if (done()) return 0;
  // Pass 1: collect (last_active, name) of evictable tenants, one shard
  // lock at a time (never two shard locks held together).
  std::vector<std::pair<int64_t, std::string>> candidates;
  for (const auto& shard : shards_) {
    platform::Guard lock(shard->mu);
    for (const auto& [name, entry] : shard->tenants) {
      if (entry->prepared != nullptr && entry->pins == 0 &&
          !entry->reserved) {
        candidates.emplace_back(entry->last_active_us, name);
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  // Pass 2: re-check and detach under each victim's shard lock. A tenant
  // pinned between the passes is skipped — the eviction invariant holds
  // because pins only change under the shard lock we re-check beneath.
  std::vector<std::unique_ptr<PreparedMap>> victims;
  for (auto& [last_active, name] : candidates) {
    if (done()) break;
    Shard& shard = ShardFor(name);
    platform::Guard lock(shard.mu);
    auto it = shard.tenants.find(name);
    if (it == shard.tenants.end()) continue;
    Entry& entry = *it->second;
    if (entry.prepared == nullptr || entry.pins > 0 || entry.reserved) {
      continue;
    }
    int64_t dropped = static_cast<int64_t>(entry.prepared->size());
    victims.push_back(std::move(entry.prepared));
    m_resident_->Set(
        resident_count_.fetch_sub(1, std::memory_order_relaxed) - 1);
    m_prepared_->Set(
        prepared_count_.fetch_sub(dropped, std::memory_order_relaxed) -
        dropped);
    if (dropped > 0) {
      prepared_evicted_.fetch_add(dropped, std::memory_order_relaxed);
      obs::Increment(m_prepared_evicted_, dropped);
    }
    evictions_.fetch_add(1, std::memory_order_relaxed);
    obs::Increment(m_evictions_);
  }
  // The victims' registrations are freed here, with no shard lock held.
  return victims.size();
}

CatalogStats TenantCatalog::Stats() const {
  CatalogStats stats;
  stats.tenants = tenant_count_.load(std::memory_order_relaxed);
  stats.resident = resident_count_.load(std::memory_order_relaxed);
  stats.pinned = pinned_count_.load(std::memory_order_relaxed);
  stats.prepared = prepared_count_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.reloads = reloads_.load(std::memory_order_relaxed);
  stats.prepared_evicted = prepared_evicted_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace mtdb::catalog
