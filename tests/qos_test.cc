// Invariant tests for the QoS layer (src/qos/): token-bucket admission
// properties under simulated clocks, weighted-fair-queue ordering and share
// guarantees under real threads (the TSan job runs these under `ctest -L
// qos`), the per-tenant state each keeps (a bucket per quota, a queue entry
// per parked tenant or explicit weight), and the end-to-end contract that a
// throttled machine is never mistaken for a failed one.

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster_controller.h"
#include "src/cluster/machine.h"
#include "src/common/random.h"
#include "src/obs/metrics.h"
#include "src/qos/admission.h"
#include "src/qos/fair_queue.h"
#include "src/qos/token_bucket.h"

namespace mtdb {
namespace {

// --- token bucket ---

// Property: starting from a full bucket at t=0, any schedule of acquisition
// attempts over a window of W seconds admits at most rate*W + burst (+1 for
// boundary rounding) transactions, no matter how adversarial the arrival
// pattern.
TEST(TokenBucketTest, NeverAdmitsMoreThanRatePlusBurstPerWindow) {
  constexpr double kRate = 100.0;
  constexpr double kBurst = 10.0;
  constexpr int64_t kWindowUs = 2'000'000;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    qos::TokenBucket bucket(kRate, kBurst);
    Random rng(seed);
    int64_t now_us = 0;
    int64_t admitted = 0;
    while (now_us < kWindowUs) {
      if (bucket.TryAcquire(now_us, nullptr)) ++admitted;
      // Adversarial arrivals: mostly bursts of back-to-back attempts, with
      // occasional idle gaps that let tokens accrue.
      now_us += rng.Bernoulli(0.9)
                    ? static_cast<int64_t>(rng.Uniform(200))
                    : static_cast<int64_t>(rng.Uniform(50'000));
    }
    double window_sec = static_cast<double>(kWindowUs) / 1e6;
    EXPECT_LE(admitted,
              static_cast<int64_t>(kRate * window_sec + kBurst) + 1)
        << "seed " << seed;
  }
}

TEST(TokenBucketTest, RetryAfterHintIsHonest) {
  qos::TokenBucket bucket(10.0, 1.0);
  ASSERT_TRUE(bucket.TryAcquire(0, nullptr));  // drain the single-token burst
  int64_t retry_after_us = 0;
  ASSERT_FALSE(bucket.TryAcquire(0, &retry_after_us));
  ASSERT_GT(retry_after_us, 0);
  // Waiting exactly the hinted time must yield one token...
  EXPECT_TRUE(bucket.TryAcquire(retry_after_us, nullptr));
  // ...and only one.
  EXPECT_FALSE(bucket.TryAcquire(retry_after_us, nullptr));
}

TEST(TokenBucketTest, ConfigurePreservesFillAndClampsToNewBurst) {
  qos::TokenBucket bucket(10.0, 4.0);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(bucket.TryAcquire(0, nullptr));
  ASSERT_FALSE(bucket.TryAcquire(0, nullptr));
  // A live refresh to a generous quota must not mint a free burst: the
  // drained fill carries over.
  bucket.Configure(1000.0, 100.0);
  EXPECT_FALSE(bucket.TryAcquire(0, nullptr));

  // And shrinking the burst clamps an over-full bucket down.
  qos::TokenBucket full(10.0, 100.0);
  full.Configure(10.0, 2.0);
  EXPECT_TRUE(full.TryAcquire(0, nullptr));
  EXPECT_TRUE(full.TryAcquire(0, nullptr));
  EXPECT_FALSE(full.TryAcquire(0, nullptr));
}

TEST(TokenBucketTest, UnlimitedRateHintsALongWait) {
  qos::TokenBucket bucket(0.0, 1.0);
  ASSERT_TRUE(bucket.TryAcquire(0, nullptr));
  int64_t retry_after_us = 0;
  ASSERT_FALSE(bucket.TryAcquire(0, &retry_after_us));
  EXPECT_EQ(retry_after_us, 1'000'000);
}

// --- admission controller ---

TEST(AdmissionControllerTest, DefaultIsUnlimited) {
  qos::AdmissionController admission({});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(admission.AdmitTxn("any", 0).admitted);
  }
}

TEST(AdmissionControllerTest, QuotaIsPerDatabase) {
  qos::AdmissionController admission({});
  qos::QuotaSpec spec;
  spec.rate_tps = 10;
  spec.burst = 2;
  admission.SetQuota("limited", spec);
  EXPECT_TRUE(admission.AdmitTxn("limited", 0).admitted);
  EXPECT_TRUE(admission.AdmitTxn("limited", 0).admitted);
  qos::AdmitDecision denied = admission.AdmitTxn("limited", 0);
  EXPECT_FALSE(denied.admitted);
  EXPECT_GT(denied.retry_after_us, 0);
  // The neighbor without a quota is untouched.
  EXPECT_TRUE(admission.AdmitTxn("neighbor", 0).admitted);
  // Removing the quota (rate <= 0) lifts the limit.
  admission.SetQuota("limited", {});
  EXPECT_TRUE(admission.AdmitTxn("limited", 0).admitted);
}

// Admitting a tenant without a quota is a lookup, not an insert: a machine
// serving many small tenants that never set a quota holds no admission
// state for them.
TEST(AdmissionControllerTest, UnquotedTenantsLeaveNoState) {
  qos::AdmissionController admission({});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(
        admission.AdmitTxn("tenant" + std::to_string(i), 0).admitted);
  }
  EXPECT_EQ(admission.entry_count(), 0u);
}

// --- weighted fair queue ---

// Parks one waiter per database in `dbs` behind a slot held by an untracked
// tenant (the queue needs permits == 1), runs `while_parked`, then lets
// every waiter through and joins them once the queue has drained.
void ParkAndDrain(qos::WeightedFairQueue& queue,
                  const std::vector<std::string>& dbs,
                  const std::function<void()>& while_parked) {
  queue.Enter("holder");
  std::vector<std::thread> waiters;
  for (const std::string& db : dbs) {
    waiters.emplace_back([&queue, db] {
      queue.Enter(db);
      queue.Leave();
    });
  }
  while (queue.queue_depth() < dbs.size()) std::this_thread::yield();
  while_parked();
  queue.Leave();
  for (std::thread& waiter : waiters) waiter.join();
}

// Per-tenant FIFO ordering: with one permit, the slot itself serializes the
// critical sections, so recording the enqueue sequence while *holding* the
// slot captures the true grant order. Within each database that order must
// match enqueue order even with racing threads from multiple tenants. Run
// under TSan via the `qos` ctest label.
TEST(WeightedFairQueueTest, GrantsWithinTenantFollowEnqueueOrder) {
  qos::WeightedFairQueue::Options options;
  options.permits = 1;
  qos::WeightedFairQueue queue(options);

  constexpr int kThreadsPerDb = 3;
  constexpr int kItersPerThread = 200;
  std::mutex record_mu;
  std::map<std::string, std::vector<uint64_t>> grant_order;

  std::vector<std::thread> threads;
  for (const std::string db : {"a", "b"}) {
    for (int t = 0; t < kThreadsPerDb; ++t) {
      threads.emplace_back([&queue, &record_mu, &grant_order, db] {
        for (int i = 0; i < kItersPerThread; ++i) {
          uint64_t seq = queue.Enter(db);
          {
            std::lock_guard<std::mutex> lock(record_mu);
            grant_order[db].push_back(seq);
          }
          queue.Leave();
        }
      });
    }
  }
  for (std::thread& thread : threads) thread.join();

  for (const auto& [db, seqs] : grant_order) {
    ASSERT_EQ(seqs.size(),
              static_cast<size_t>(kThreadsPerDb * kItersPerThread));
    for (size_t i = 1; i < seqs.size(); ++i) {
      ASSERT_LT(seqs[i - 1], seqs[i])
          << "db " << db << ": grant " << i << " out of enqueue order";
    }
  }
  EXPECT_EQ(queue.in_use(), 0);
  EXPECT_EQ(queue.queue_depth(), 0u);
}

// A backlogged heavy tenant receives slots roughly in proportion to its
// weight. Bounds are deliberately loose (2x for a 4x weight) so scheduler
// noise cannot flake the test.
TEST(WeightedFairQueueTest, WeightsSkewSlotShares) {
  qos::WeightedFairQueue::Options options;
  options.permits = 1;
  qos::WeightedFairQueue queue(options);
  queue.SetWeight("heavy", 4);
  queue.SetWeight("light", 1);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> heavy_grants{0};
  std::atomic<int64_t> light_grants{0};
  auto worker = [&queue, &stop](const std::string& db,
                                std::atomic<int64_t>* grants) {
    while (!stop.load(std::memory_order_relaxed)) {
      queue.Enter(db);
      grants->fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      queue.Leave();
    }
  };
  // Enough threads per tenant to keep both queues backlogged: DRR resets a
  // tenant's deficit whenever its queue drains, so the achievable skew is
  // capped by the backlog depth, not just the weight.
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back(worker, "heavy", &heavy_grants);
    threads.emplace_back(worker, "light", &light_grants);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();

  ASSERT_GT(light_grants.load(), 0);
  EXPECT_GE(heavy_grants.load(), 2 * light_grants.load())
      << "heavy=" << heavy_grants.load() << " light=" << light_grants.load();
}

// A default-weight tenant whose queue drains leaves no entry behind; an
// explicit weight is the scheduler half of a pushed quota and survives the
// drain, because nothing re-pushes it.
TEST(WeightedFairQueueTest, EvictIdleKeepsAnExplicitWeight) {
  qos::WeightedFairQueue::Options options;
  options.permits = 1;
  qos::WeightedFairQueue queue(options);
  queue.SetWeight("heavy", 4);
  queue.SetWeight("plain", 1);  // the default weight
  ParkAndDrain(queue, {"heavy", "plain"},
               [&] { ASSERT_EQ(queue.tenant_count(), 2u); });
  EXPECT_EQ(queue.queue_depth(), 0u);
  EXPECT_EQ(queue.tenant_count(), 1u);
}

TEST(WeightedFairQueueTest, FifoPolicyIgnoresWeights) {
  qos::WeightedFairQueue::Options options;
  options.permits = 2;
  options.policy = qos::WeightedFairQueue::Policy::kFifo;
  qos::WeightedFairQueue queue(options);
  queue.SetWeight("a", 100);  // must be a no-op under FIFO
  qos::WeightedFairQueue::Guard first(&queue, "a");
  qos::WeightedFairQueue::Guard second(&queue, "b");
  EXPECT_EQ(queue.in_use(), 2);
}

// The same drain on a machine: a tenant whose quota carries a weight keeps
// both halves of the quota, while a default-weight neighbour leaves nothing.
TEST(MachineQosTest, EvictTenantKeepsAnExplicitWeight) {
  MachineOptions options;
  options.max_concurrent_ops = 1;
  Machine machine(0, options);
  ASSERT_NE(machine.fair_queue(), nullptr);
  machine.SetQuota("app", qos::QuotaSpec{.weight = 10});
  ParkAndDrain(*machine.fair_queue(), {"app", "neighbour"}, [] {});
  EXPECT_EQ(machine.fair_queue()->tenant_count(), 1u);
  EXPECT_EQ(machine.GetQuota("app").weight, 10);
}

// --- end-to-end: throttling through the RPC stack ---

class QosClusterTest : public ::testing::Test {
 protected:
  void Build(ClusterControllerOptions options) {
    controller_ = std::make_unique<ClusterController>(options);
    controller_->AddMachine();
    ASSERT_TRUE(controller_->CreateDatabase("app", 1).ok());
    ASSERT_TRUE(controller_
                    ->ExecuteDdl("app",
                                 "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
                    .ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 10; ++i) rows.push_back({Value(i), Value(i)});
    ASSERT_TRUE(controller_->BulkLoad("app", "t", rows).ok());
  }

  std::unique_ptr<ClusterController> controller_;
};

TEST_F(QosClusterTest, SetQuotaRpcRoundTripsToMachine) {
  Build({});
  qos::QuotaSpec spec;
  spec.rate_tps = 123.5;
  spec.burst = 7;
  spec.weight = 9;
  ASSERT_TRUE(controller_->SetDatabaseQuota("app", spec).ok());
  qos::QuotaSpec stored = controller_->machine(0)->GetQuota("app");
  EXPECT_DOUBLE_EQ(stored.rate_tps, 123.5);
  EXPECT_DOUBLE_EQ(stored.burst, 7);
  EXPECT_EQ(stored.weight, 9);
  EXPECT_EQ(controller_->SetDatabaseQuota("missing", spec).code(),
            StatusCode::kNotFound);
  qos::QuotaSpec controller_view = controller_->DatabaseQuota("app");
  EXPECT_DOUBLE_EQ(controller_view.rate_tps, 123.5);
}

// The acceptance-criteria test: a tenant hammering a machine far past its
// quota collects kResourceExhausted responses, and NOT ONE of them feeds the
// failure/recovery path — the failover counter stays flat, the machine stays
// un-failed, and the throttle counter accounts for every rejection.
TEST_F(QosClusterTest, ThrottleFloodNeverTriggersFailover) {
  ClusterControllerOptions options;
  options.throttle_retry.budget_us = 0;  // fail fast: surface every throttle
  Build(options);
  qos::QuotaSpec spec;
  spec.rate_tps = 1;  // one admission per second
  spec.burst = 1;
  ASSERT_TRUE(controller_->SetDatabaseQuota("app", spec).ok());

  auto& registry = obs::MetricsRegistry::Global();
  int64_t failovers_before =
      registry.SumCounter("mtdb_machine_failover_total");
  int64_t throttled_before =
      registry.CounterValue("mtdb_qos_throttled_total", {.machine = "m0"});

  std::atomic<int64_t> throttled_seen{0};
  std::atomic<int64_t> other_failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, &throttled_seen, &other_failures] {
      auto conn = controller_->Connect("app");
      for (int i = 0; i < 25; ++i) {
        auto result = conn->Execute("SELECT v FROM t WHERE id = 1");
        if (result.ok()) continue;
        if (result.status().code() == StatusCode::kResourceExhausted) {
          throttled_seen.fetch_add(1, std::memory_order_relaxed);
        } else {
          other_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_GT(throttled_seen.load(), 0) << "flood was never throttled";
  EXPECT_EQ(other_failures.load(), 0);
  EXPECT_EQ(registry.SumCounter("mtdb_machine_failover_total"),
            failovers_before)
      << "a throttled response triggered machine failover";
  EXPECT_FALSE(controller_->machine(0)->failed());
  EXPECT_GT(
      registry.CounterValue("mtdb_qos_throttled_total", {.machine = "m0"}),
      throttled_before);
}

// A transaction's first read on a machine carries its begin, so the
// admission verdict rides the read's reply: a refusal runs nothing — no
// engine transaction is left behind on the machine — and, like a refused
// kBegin, surfaces as a throttle, never as a machine failure.
TEST_F(QosClusterTest, RefusedFirstReadLeavesNoTransaction) {
  ClusterControllerOptions options;
  options.throttle_retry.budget_us = 0;  // fail fast: surface the refusal
  Build(options);
  qos::QuotaSpec spec;
  spec.rate_tps = 1;
  spec.burst = 1;
  ASSERT_TRUE(controller_->SetDatabaseQuota("app", spec).ok());

  auto conn = controller_->Connect("app");
  // The burst admits one transaction...
  ASSERT_TRUE(conn->Execute("SELECT v FROM t WHERE id = 1").ok());
  // ...and the next one's first read is refused before it runs.
  ASSERT_TRUE(conn->Begin().ok());
  auto refused = conn->Execute("SELECT v FROM t WHERE id = 1");
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted)
      << refused.status().ToString();
  auto active = controller_->machine_client()->ListActive(0);
  ASSERT_TRUE(active.ok()) << active.status().ToString();
  EXPECT_TRUE(active->empty()) << active->size() << " transaction(s) left";
  EXPECT_FALSE(controller_->machine(0)->failed());
  EXPECT_TRUE(conn->Abort().ok());
}

// With a retry budget, the connection honors retry_after_us and every
// transaction eventually lands — the quota shapes traffic instead of
// failing it.
TEST_F(QosClusterTest, BackoffRetriesAbsorbAModestOverrun) {
  Build({});  // default 2s retry budget
  qos::QuotaSpec spec;
  spec.rate_tps = 200;
  spec.burst = 1;
  ASSERT_TRUE(controller_->SetDatabaseQuota("app", spec).ok());

  auto& registry = obs::MetricsRegistry::Global();
  int64_t backoffs_before =
      registry.CounterValue("mtdb_qos_backoff_total", {});

  auto conn = controller_->Connect("app");
  for (int i = 0; i < 20; ++i) {
    auto result = conn->Execute("SELECT v FROM t WHERE id = 1");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_GT(registry.CounterValue("mtdb_qos_backoff_total", {}),
            backoffs_before)
      << "20 txns at 200 tps/burst 1 should have backed off at least once";
}

}  // namespace
}  // namespace mtdb
