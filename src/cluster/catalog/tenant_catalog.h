#ifndef MTDB_CLUSTER_CATALOG_TENANT_CATALOG_H_
#define MTDB_CLUSTER_CATALOG_TENANT_CATALOG_H_

// Sharded, lazily-loaded tenant catalog — the authoritative per-tenant
// metadata store for a cluster sized "a large number of small applications"
// (the paper's 10^5-10^6 tenants, ROADMAP item 10).
//
// The design splits each tenant's state in two:
//
//  * Durable state (TenantRecord): placement (replica list, primary offset,
//    copy-in-progress bookkeeping) and the QoS quota spec. ~100 bytes per
//    tenant, lives for the tenant's lifetime, never evicted. This is the
//    whole per-tenant cost of an idle application.
//
//  * Resident state (materialized on first use, LRU-evicted when idle):
//    the tenant's prepared-statement registrations, nothing else. They
//    rebuild on demand from the SQL text, whose parse the controller
//    shares across tenants, so eviction is invisible to correctness and a
//    reload parses nothing: the next pin reloads. Other layers bound their
//    own per-tenant state where it lives (DESIGN.md §14); the catalog tells
//    them nothing.
//
// One sweep rule serves both caps: a pin that pushes the resident count
// past max_resident, or a registration that pushes the prepared count past
// max_prepared, runs one sweep of idle tenants, oldest first, down to ~90%
// of that cap (its low-water mark), so one scan-and-sort buys many pins or
// registrations instead of one.
//
// Concurrency: tenants are sharded by name hash; each shard has its own
// mutex guarding its map and every entry in it. Catalog methods take at
// most ONE shard lock at a time (the eviction sweep walks shards strictly
// sequentially), so the single shard lock class can never deadlock against
// itself. Callers must not call back into the catalog from With()
// callbacks — the shard mutexes are one lock class and re-entry would
// self-nest.
//
// Eviction invariant: a tenant pinned by a TenantRef (= a transaction in
// flight on it) is never evicted. Pins are counted under the shard lock, so
// a concurrent AcquireForTxn either pins before the sweep re-checks (victim
// skipped) or materializes fresh resident state after (a reload).

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cluster/catalog/prepared_statement.h"
#include "src/common/result.h"
#include "src/obs/metrics.h"
#include "src/platform/mutex.h"
#include "src/qos/qos.h"

namespace mtdb::catalog {

// The one copy in flight for a tenant (ReplicaBuilder, DESIGN.md §16):
// a recovery copy or a move, part of the durable record (a mid-copy tenant
// is by definition not idle metadata). Only ClusterController's copy
// methods assign it (mtdblint rule copy-state); everyone else reads it.
struct CopyState {
  bool active = false;
  int source_machine = -1;
  int target_machine = -1;
  // A move: on completion the target takes the source's replica slot.
  bool move = false;
  // Frozen for a cutover or an abort's drain: AcquireForTxn refuses new
  // pins, so begins back off until the state clears.
  bool cutover = false;
  // Algorithm 1: tables whose client writes also reach the target, and the
  // one being copied, whose writes are rejected ("" = none, "*" = the whole
  // database).
  std::set<std::string> copied_tables;
  std::string in_progress;
};

// The durable per-tenant record: everything the controller must know about
// a tenant even when it has been idle for a week. Mutated only under the
// owning shard's lock (via TenantCatalog::With).
struct TenantRecord {
  std::vector<int> replicas;
  // Which replica serves Option-1 reads: assigned round-robin among
  // databases sharing the same replica set, so per-database primaries
  // spread evenly across machines.
  int primary_offset = 0;
  CopyState copy;
  int64_t rejected_writes = 0;
  // Client writes routed and not yet answered by their last replica, per
  // table. ClusterController::WriteTargets counts a write in the section
  // that reads `copy`, so a copy window opened after the count waits the
  // write out; the write's last reply uncounts it. An entry goes with its
  // table's last write in flight, so the map holds at most the tenant's
  // tables.
  std::map<std::string, int64_t> writes_in_flight;
  // QoS admission quota + WDRR weight, pushed to every replica (and to a
  // copy target when the copy completes). has_quota distinguishes "no
  // quota configured" from "explicitly unlimited".
  qos::QuotaSpec quota;
  bool has_quota = false;
};

// Point-in-time catalog counters, exposed through mtdb_catalog_* metrics
// (and therefore over the kStats RPC) and TenantCatalog::Stats().
struct CatalogStats {
  int64_t tenants = 0;
  int64_t resident = 0;
  int64_t pinned = 0;
  int64_t prepared = 0;
  int64_t evictions = 0;
  int64_t reloads = 0;
  int64_t prepared_evicted = 0;
};

class TenantCatalog {
 public:
  struct Options {
    // Shard count (rounded up to a power of two). More shards = less lock
    // contention on the pin hot path.
    size_t shards = 16;
    // Resident-state LRU cap: at most this many tenants keep materialized
    // resident state. Eviction frees down to ~90% of the cap in one sweep
    // so the sweep cost amortizes across many pins.
    size_t max_resident = 1024;
    // Global cap on prepared-statement registrations across all tenants,
    // enforced like max_resident: one sweep of whole idle tenants down to
    // ~90% of the cap.
    size_t max_prepared = 4096;
    // Per-tenant cap on prepared registrations (a single tenant preparing
    // distinct texts in a loop evicts its own LRU statement, not other
    // tenants' state).
    size_t max_prepared_per_tenant = 512;
    // Label for this catalog's metric series (a process may host several:
    // the controller's, and in principle per-machine ones).
    const char* name = "catalog";
  };

  // Two constructors (not one defaulted argument): GCC rejects a `= {}`
  // default for a nested-class parameter inside the enclosing class body.
  TenantCatalog();
  explicit TenantCatalog(Options options);
  ~TenantCatalog();

  TenantCatalog(const TenantCatalog&) = delete;
  TenantCatalog& operator=(const TenantCatalog&) = delete;

  // --- Lifecycle ---
  // Reserves `name` for a creation in progress: Contains() turns true (so
  // concurrent creates fail kAlreadyExists) but the record is not yet
  // routable (With/AcquireForTxn report NotFound). Finish with Install or
  // AbortReserve.
  Status Reserve(const std::string& name);
  void Install(const std::string& name, TenantRecord record);
  void AbortReserve(const std::string& name);
  Status Erase(const std::string& name);
  bool Contains(const std::string& name) const;
  size_t tenant_count() const;
  std::vector<std::string> Names() const;

  // --- Record access ---
  // Runs `fn` on the tenant's durable record under its shard lock; returns
  // NotFound for absent or still-reserved tenants. The callback must be
  // short and must not re-enter the catalog or take locks that can be held
  // while calling catalog methods.
  Status With(const std::string& name,
              const std::function<void(TenantRecord&)>& fn);
  Status With(const std::string& name,
              const std::function<void(const TenantRecord&)>& fn) const;

  // --- Pins ---
  // Pin on a tenant: while at least one TenantRef is live, the tenant's
  // resident state is never evicted. Connections hold one for the duration
  // of every transaction. Release is idempotent and automatic on
  // destruction; pinning an unknown tenant returns an invalid ref
  // (valid() == false), which is a no-op to release.
  class TenantRef {
   public:
    TenantRef() = default;
    TenantRef(TenantRef&& other) noexcept { *this = std::move(other); }
    TenantRef& operator=(TenantRef&& other) noexcept;
    ~TenantRef() { Release(); }

    TenantRef(const TenantRef&) = delete;
    TenantRef& operator=(const TenantRef&) = delete;

    bool valid() const { return catalog_ != nullptr; }
    const std::string& tenant() const { return tenant_; }
    void Release();

   private:
    friend class TenantCatalog;
    TenantRef(TenantCatalog* catalog, std::string tenant)
        : catalog_(catalog), tenant_(std::move(tenant)) {}

    TenantCatalog* catalog_ = nullptr;
    std::string tenant_;
  };

  // Pins `name` for a new transaction, materializing (or reloading) its
  // resident state and bumping its LRU position; may sweep other, unpinned
  // tenants when the resident cap is exceeded. Refuses to pin a tenant
  // whose copy is frozen (CopyState::cutover), returning an invalid ref
  // with *cutover = true so the caller backs off and retries (throttled,
  // never failed). The check and the pin are one atomic step under the
  // shard lock — once the freeze is set, the pin count can only fall, so
  // the replica builder's drain loop (PinCount() == 0) cannot race a late
  // pin.
  TenantRef AcquireForTxn(const std::string& name, bool* cutover);

  // Current pin count (0 for unknown tenants). The freeze's drain
  // condition.
  int64_t PinCount(const std::string& name) const;

  // --- Prepared-statement registry (resident state) ---
  std::shared_ptr<PreparedStatement> FindPrepared(const std::string& tenant,
                                                  const std::string& sql);
  // Registers `stmt` for (tenant, sql), returning the registered instance —
  // which is an earlier racing registration if one won. A statement for an
  // unknown/reserved tenant is returned unregistered (it still executes;
  // it just is not cached). Counts toward the per-tenant and global
  // prepared caps; exceeding the per-tenant cap evicts the tenant's LRU
  // registration, and exceeding the global cap sweeps idle tenants down to
  // its low-water mark; both bump mtdb_prepared_evicted.
  std::shared_ptr<PreparedStatement> InternPrepared(
      const std::string& tenant, const std::string& sql,
      std::shared_ptr<PreparedStatement> stmt);

  // --- Eviction ---
  // Evicts idle (unpinned) tenants' resident state, oldest first, until at
  // most `target` tenants stay resident. Returns the number evicted.
  size_t EvictResidentDownTo(size_t target);

  CatalogStats Stats() const;
  size_t resident_count() const {
    return static_cast<size_t>(
        resident_count_.load(std::memory_order_relaxed));
  }
  size_t prepared_count() const {
    return static_cast<size_t>(
        prepared_count_.load(std::memory_order_relaxed));
  }

 private:
  struct PreparedSlot {
    std::shared_ptr<PreparedStatement> stmt;
    int64_t last_use_us = 0;
  };

  // A tenant's resident state: its prepared registrations by SQL text.
  using PreparedMap = std::unordered_map<std::string, PreparedSlot>;

  // One tenant. All fields are guarded by the owning shard's mutex (the
  // entry is only reachable through the shard map).
  struct Entry {
    TenantRecord record;
    bool reserved = false;
    int64_t pins = 0;
    int64_t last_active_us = 0;
    bool ever_resident = false;
    // Null while the tenant is not resident.
    std::unique_ptr<PreparedMap> prepared;
  };

  struct Shard {
    platform::Mutex mu{"catalog/TenantCatalog::shard_mu"};
    std::unordered_map<std::string, std::unique_ptr<Entry>> tenants
        MTDB_GUARDED_BY(mu);
  };

  Shard& ShardFor(const std::string& name) const;
  // Materializes resident state for an entry (shard lock held), updating
  // the resident/reload counters.
  void MaterializeLocked(Entry& entry);
  // Sweeps unpinned resident tenants, oldest first, until at most
  // `max_resident` tenants stay resident and at most `max_prepared`
  // registrations stay cached. No shard lock held on entry; takes them one
  // at a time, and frees the victims' registrations after releasing the
  // last. Returns the number evicted.
  size_t Sweep(size_t max_resident, size_t max_prepared);
  void Unpin(const std::string& name);
  void MaybeEvict();

  Options options_;
  size_t shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<int64_t> tenant_count_{0};
  std::atomic<int64_t> resident_count_{0};
  std::atomic<int64_t> pinned_count_{0};
  std::atomic<int64_t> prepared_count_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> reloads_{0};
  std::atomic<int64_t> prepared_evicted_{0};

  // Metric series (label machine=options_.name). mtdb_prepared_evicted is
  // the satellite-mandated name; the rest follow the _total convention.
  obs::Gauge* m_tenants_ = nullptr;
  obs::Gauge* m_resident_ = nullptr;
  obs::Gauge* m_prepared_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Counter* m_reloads_ = nullptr;
  obs::Counter* m_prepared_evicted_ = nullptr;
};

}  // namespace mtdb::catalog

#endif  // MTDB_CLUSTER_CATALOG_TENANT_CATALOG_H_
