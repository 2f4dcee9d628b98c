// The platform benchmark's load generator.
//
// Builds an in-process cluster (machines behind InProcTransport, the
// cluster controller in front), loads TPC-W tenants, and drives a closed
// loop of client threads through the public Connection API for a fixed
// time. Every transaction is timed here, from outside the program; the
// percentiles are exact, computed from the raw samples. After the run it
// checks that replicas agree, that the committed count matches the
// controller's, that no RPC timed out and no machine failed over, and (with
// a WAL) that replaying each machine's log reproduces its tables.
//
// With --trace 1 the controller talks through a TracingTransport, and the
// run alternates traced and untraced slices: traced slices record one span
// per RPC and per benchmark call, and the per-layer figures come from those
// spans plus count/sum deltas of the program's mtdb_* metric series.
//
// Prints one JSON object on the last line of stdout. Normally run through
// perfbench/run.py, which builds this binary and passes the workload's
// configuration from perfbench/workloads.json.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "perfbench/checks.h"
#include "perfbench/trace.h"
#include "src/cluster/cluster_controller.h"
#include "src/common/random.h"
#include "src/obs/metrics.h"
#include "src/workload/tpcw.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using mtdb::workload::Interaction;
using mtdb::workload::TpcwMix;
using mtdb::workload::TpcwStatements;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/run";

  int tenants = 4;
  // Sessions per tenant, each with its own long-lived connection and
  // client thread. 0: kClients threads pick a tenant per transaction
  // (Zipf) and open a fresh connection for it.
  int sessions = 1;
  TpcwMix mix = TpcwMix::kBrowsing;

  bool wal = false;
  int64_t lock_timeout_us = 100'000;
  // The catalog caps default to the library's; the engine plan cache and
  // the per-tenant prepared cap always keep theirs.
  size_t catalog_max_resident =
      mtdb::catalog::TenantCatalog::Options{}.max_resident;
  size_t catalog_max_prepared =
      mtdb::catalog::TenantCatalog::Options{}.max_prepared;
  int max_concurrent_ops = 0;

  int64_t items = 100;
  int64_t customers = 200;
  int64_t orders = 100;

  int setup_repeats = 3;
};

// The same in every workload.
constexpr int kMachines = 4;
constexpr int kReplicas = 2;
constexpr int kClients = 4;
constexpr double kZipfTheta = 0.99;
// Modeled device sync per WAL flush, standing in for the disk.
constexpr int64_t kWalSyncDelayUs = 200;
// Untimed load before the window, so caches fill and lazy set-up finishes.
constexpr int64_t kWarmupMs = 1000;
// Traced runs alternate traced and untraced slices of this length.
constexpr int64_t kSliceMs = 250;
// An interaction whose transaction aborts (deadlock victim, lock timeout)
// is retried up to this many times before it counts as failed.
constexpr int kMaxAttempts = 20;
// The window is cut into this many equal parts. txn_per_s and the p50s are
// the medians of their per-part values, so that a burst of host CPU steal
// covering fewer than half of the parts leaves them unchanged; the
// whole-window values are reported alongside.
constexpr int64_t kSubWindows = 10;

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--<config key> VALUE ...]\n");
  std::exit(2);
}

Config ParseFlags(int argc, char** argv) {
  Config c;
  auto as_int = [](const std::string& v) { return std::stoll(v); };
  const std::map<std::string, std::function<void(const std::string&)>>
      setters = {
          {"workload", [&](const std::string& v) { c.workload = v; }},
          {"seed", [&](const std::string& v) { c.seed = std::stoull(v); }},
          {"seconds", [&](const std::string& v) { c.seconds = std::stod(v); }},
          {"trace", [&](const std::string& v) { c.trace = v == "1"; }},
          {"out-dir", [&](const std::string& v) { c.out_dir = v; }},
          {"tenants", [&](const std::string& v) { c.tenants = as_int(v); }},
          {"sessions", [&](const std::string& v) { c.sessions = as_int(v); }},
          {"mix",
           [&](const std::string& v) {
             if (v == "browsing") {
               c.mix = TpcwMix::kBrowsing;
             } else if (v == "shopping") {
               c.mix = TpcwMix::kShopping;
             } else if (v == "ordering") {
               c.mix = TpcwMix::kOrdering;
             } else {
               Usage("unknown mix " + v);
             }
           }},
          {"wal", [&](const std::string& v) { c.wal = v == "group"; }},
          {"lock-timeout-us",
           [&](const std::string& v) { c.lock_timeout_us = as_int(v); }},
          {"catalog-max-resident",
           [&](const std::string& v) { c.catalog_max_resident = as_int(v); }},
          {"catalog-max-prepared",
           [&](const std::string& v) { c.catalog_max_prepared = as_int(v); }},
          {"max-concurrent-ops",
           [&](const std::string& v) { c.max_concurrent_ops = as_int(v); }},
          {"items", [&](const std::string& v) { c.items = as_int(v); }},
          {"customers", [&](const std::string& v) { c.customers = as_int(v); }},
          {"orders", [&](const std::string& v) { c.orders = as_int(v); }},
          {"setup-repeats",
           [&](const std::string& v) { c.setup_repeats = as_int(v); }},
      };
  for (int i = 1; i < argc; i += 2) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) Usage("bad flag " + flag);
    auto it = setters.find(flag.substr(2));
    if (it == setters.end()) Usage("unknown flag " + flag);
    try {
      it->second(argv[i + 1]);
    } catch (const std::exception&) {
      Usage("bad value for " + flag);
    }
  }
  if (c.workload.empty()) Usage("--workload is required");
  if (c.tenants < 1 || c.seconds <= 0 || c.setup_repeats < 1 ||
      c.sessions < 0 || (c.sessions > 0 && c.tenants * c.sessions != kClients)) {
    Usage("inconsistent configuration");
  }
  return c;
}

mtdb::workload::TpcwScale Scale(const Config& c) {
  mtdb::workload::TpcwScale scale;
  scale.items = c.items;
  scale.customers = c.customers;
  scale.initial_orders = c.orders;
  return scale;
}

// Resident set size of this process, in bytes (from /proc/self/status;
// getrusage's peak would include the peak of the process that exec'd us).
int64_t RssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atoll(line.c_str() + 6) * 1024;
    }
  }
  return 0;
}

// Jiffies of all CPUs from /proc/stat: all of them, and those stolen by the
// hypervisor for other guests. A run's steal share tells a slow run on a
// busy host from a slow program.
struct CpuJiffies {
  int64_t total = 0;
  int64_t steal = 0;
};

CpuJiffies ReadCpuJiffies() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuJiffies jiffies;
  int64_t value = 0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && stat >> value; ++i) {
    jiffies.total += value;
    if (i == 7) jiffies.steal = value;
  }
  return jiffies;
}

std::string TenantName(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "app%04d", i);
  return buf;
}

// One set-up cluster. Members are declared so that connections go before
// the controller, and the controller before the transport it talks through.
struct Cluster {
  std::unique_ptr<TracingTransport> transport;
  std::unique_ptr<mtdb::ClusterController> controller;
  std::vector<std::string> tenants;
  // Long-lived sessions (sessions > 0): one per client thread.
  std::vector<std::unique_ptr<mtdb::Connection>> connections;
  std::vector<TpcwStatements> statements;
  std::string wal_dir;

  Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() {
    connections.clear();
    controller.reset();
    if (!wal_dir.empty()) {
      std::error_code ignored;
      fs::remove_all(wal_dir, ignored);
    }
  }
};

// Runs each UPDATE of the statement set once against a key that matches
// no row, in a transaction that is rolled back. Mints their machine handles
// and caches their plans on every replica; the random mix would otherwise
// reach some of them (a repeated cart line) only seconds into the run.
mtdb::Status PrimeUpdateStatements(mtdb::Connection* conn,
                                   const TpcwStatements& s) {
  using mtdb::Value;
  const Value none(int64_t{-1});
  MTDB_RETURN_IF_ERROR(conn->Begin());
  const std::pair<const std::shared_ptr<mtdb::PreparedStatement>*,
                  std::vector<Value>>
      updates[] = {
          {&s.cart_line_update, {none}},
          {&s.buy_update_item, {Value(int64_t{1}), Value(int64_t{1}), none}},
          {&s.buy_update_customer, {Value(0.0), Value(0.0), none}},
          {&s.admin_update, {none}},
      };
  for (const auto& [stmt, params] : updates) {
    auto result = conn->ExecutePrepared(*stmt, params);
    if (!result.ok()) {
      if (conn->in_transaction()) (void)conn->Abort();
      return result.status();
    }
  }
  return conn->Abort();
}

mtdb::Result<std::unique_ptr<Cluster>> BuildCluster(const Config& c,
                                                    int index) {
  auto cluster = std::make_unique<Cluster>();
  mtdb::ClusterControllerOptions options;
  options.read_option = mtdb::ReadRoutingOption::kPerDatabase;
  options.write_policy = mtdb::WriteAckPolicy::kConservative;
  options.default_replicas = kReplicas;
  options.catalog.max_resident = c.catalog_max_resident;
  options.catalog.max_prepared = c.catalog_max_prepared;
  if (c.trace) {
    cluster->transport = std::make_unique<TracingTransport>();
    options.transport = cluster->transport.get();
  }
  cluster->controller = std::make_unique<mtdb::ClusterController>(options);

  if (c.wal) {
    cluster->wal_dir = c.out_dir + "/wal-" + std::to_string(getpid()) + "-" +
                       std::to_string(index);
    std::error_code ignored;
    fs::remove_all(cluster->wal_dir, ignored);
    fs::create_directories(cluster->wal_dir);
  }
  for (int m = 0; m < kMachines; ++m) {
    mtdb::MachineOptions machine;
    // Zero machine latency model: the numbers measure the platform's code,
    // not simulated sleeps.
    machine.base_op_latency_us = 0;
    machine.engine_options.buffer_pool_pages = 0;
    machine.engine_options.cache_miss_penalty_us = 0;
    machine.engine_options.lock_options.lock_timeout_us = c.lock_timeout_us;
    machine.max_concurrent_ops = c.max_concurrent_ops;
    if (c.wal) {
      machine.engine_options.wal_path =
          cluster->wal_dir + "/m" + std::to_string(m) + ".wal";
      machine.engine_options.wal_sync_policy = mtdb::wal::SyncPolicy::kGroup;
      machine.engine_options.wal_sync_delay_us = kWalSyncDelayUs;
    }
    cluster->controller->AddMachine(machine);
  }

  mtdb::workload::TpcwScale scale = Scale(c);
  for (int t = 0; t < c.tenants; ++t) {
    std::string name = TenantName(t);
    MTDB_RETURN_IF_ERROR(cluster->controller->CreateDatabase(name, kReplicas));
    MTDB_RETURN_IF_ERROR(
        mtdb::workload::CreateTpcwSchema(cluster->controller.get(), name));
    // Tenant data derives from the run's seed.
    scale.seed = c.seed * 1'000'003 + static_cast<uint64_t>(t);
    MTDB_RETURN_IF_ERROR(
        mtdb::workload::LoadTpcwData(cluster->controller.get(), name, scale));
    cluster->tenants.push_back(name);
  }

  for (int client = 0; c.sessions > 0 && client < kClients; ++client) {
    auto conn = cluster->controller->Connect(
        cluster->tenants[client / c.sessions]);
    MTDB_ASSIGN_OR_RETURN(TpcwStatements stmts,
                          mtdb::workload::PrepareTpcwStatements(conn.get()));
    if (client % c.sessions == 0) {
      MTDB_RETURN_IF_ERROR(PrimeUpdateStatements(conn.get(), stmts));
    }
    cluster->connections.push_back(std::move(conn));
    cluster->statements.push_back(std::move(stmts));
  }
  return cluster;
}

// One transaction attempt, as the client saw it.
struct Sample {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool committed = false;
  bool write = false;
  bool traced = false;
};

// One interaction: the user-visible operation, retried on abort.
struct InteractionOutcome {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool committed = false;
};

struct ClientState {
  ThreadTrace trace;
  std::vector<Sample> samples;
  std::vector<InteractionOutcome> interactions;
  int64_t committed_total = 0;  // every commit, warm-up included
};

enum Phase : int { kRunning = 0, kStop = 1 };

struct RunControl {
  std::atomic<int> phase{kRunning};
  std::atomic<bool> traced_slice{false};
};

// One transaction attempt: for long-lived sessions, RunInteraction on the
// client's connection; otherwise a fresh Connect, statement-set lookup and
// RunInteraction, then the connection is closed (what the convenience
// RunInteraction overload does, with each call timed on its own).
mtdb::Status RunAttempt(Cluster* cluster, int client, const std::string& db,
                        Interaction interaction,
                        const mtdb::workload::TpcwScale& scale,
                        mtdb::Random* rng) {
  if (!cluster->connections.empty()) {
    ScopedSpan span(SpanKind::kRunInteraction);
    return mtdb::workload::RunInteraction(
               cluster->connections[client].get(),
               cluster->statements[client], interaction, scale, rng)
        .status;
  }
  std::unique_ptr<mtdb::Connection> conn;
  {
    ScopedSpan span(SpanKind::kConnect);
    conn = cluster->controller->Connect(db);
  }
  auto stmts = [&] {
    ScopedSpan span(SpanKind::kPrepareSet);
    return mtdb::workload::PrepareTpcwStatements(conn.get());
  }();
  if (!stmts.ok()) return stmts.status();
  ScopedSpan span(SpanKind::kRunInteraction);
  return mtdb::workload::RunInteraction(conn.get(), *stmts, interaction,
                                        scale, rng)
      .status;
}

void ClientLoop(const Config& c, Cluster* cluster, int client,
                RunControl* control, ClientState* state) {
  BindThreadTrace(&state->trace);
  mtdb::Random rng(c.seed * 7'919 + static_cast<uint64_t>(client) + 1);
  std::unique_ptr<mtdb::ZipfianGenerator> zipf;
  if (c.sessions == 0) {
    zipf = std::make_unique<mtdb::ZipfianGenerator>(
        c.tenants, kZipfTheta, c.seed * 104'729 + client + 1);
  }
  const mtdb::workload::TpcwScale scale = Scale(c);
  uint64_t next_txn = (static_cast<uint64_t>(client) + 1) << 40;

  while (control->phase.load(std::memory_order_relaxed) == kRunning) {
    const std::string& db =
        zipf ? cluster->tenants[zipf->Next()]
             : cluster->tenants[client / c.sessions];
    Interaction interaction = mtdb::workload::DrawInteraction(c.mix, &rng);
    bool write = mtdb::workload::IsWriteInteraction(interaction);
    InteractionOutcome outcome;
    outcome.start_ns = NowNs();
    for (int attempt = 0; attempt < kMaxAttempts && !outcome.committed;
         ++attempt) {
      Sample sample;
      sample.write = write;
      sample.traced =
          c.trace && control->traced_slice.load(std::memory_order_relaxed);
      state->trace.txn = ++next_txn;
      state->trace.enabled = sample.traced;
      sample.start_ns = NowNs();
      mtdb::Status status =
          RunAttempt(cluster, client, db, interaction, scale, &rng);
      sample.end_ns = NowNs();
      sample.committed = status.ok();
      if (sample.traced) {
        Span& span = state->trace.spans.emplace_back();
        span.kind = SpanKind::kTxn;
        span.txn = state->trace.txn;
        span.start_ns = sample.start_ns;
        span.end_ns = sample.end_ns;
        span.committed = sample.committed;
        span.write = write;
      }
      state->trace.enabled = false;
      state->samples.push_back(sample);
      if (sample.committed) ++state->committed_total;
      outcome.committed = sample.committed;
    }
    outcome.end_ns = NowNs();
    state->interactions.push_back(outcome);
  }
  BindThreadTrace(nullptr);
}

// Count and sum deltas of the program's own metric series.
struct RegistryTotals {
  std::map<std::string, int64_t> counters;
  std::map<std::string, std::pair<int64_t, double>> histograms;

  int64_t Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  std::pair<int64_t, double> Histogram(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? std::pair<int64_t, double>{0, 0.0}
                                  : it->second;
  }
};

const char* const kCounterNames[] = {
    "mtdb_catalog_reloads_total",   "mtdb_catalog_evictions_total",
    "mtdb_prepared_evicted",        "mtdb_qos_throttled_total",
    "mtdb_qos_shed_total",          "mtdb_plan_cache_hit_total",
    "mtdb_plan_cache_miss_total",   "mtdb_sql_plan_total",
    "mtdb_deadlock_total",          "mtdb_lock_timeout_total",
    "mtdb_wal_appends_total",       "mtdb_wal_syncs_total",
    "mtdb_rpc_request_bytes_total", "mtdb_rpc_response_bytes_total",
    "mtdb_rpc_timeout_total",       "mtdb_machine_failover_total",
};
const char* const kHistogramNames[] = {
    "mtdb_qos_queue_wait_us",
    "mtdb_lock_wait_us",
    "mtdb_wal_flush_latency_us",
};

RegistryTotals ReadRegistry() {
  auto& registry = mtdb::obs::MetricsRegistry::Global();
  RegistryTotals totals;
  for (const char* name : kCounterNames) {
    totals.counters[name] = registry.SumCounter(name);
  }
  for (const mtdb::obs::SeriesSnapshot& series : registry.Snapshot()) {
    if (series.kind != mtdb::obs::SeriesSnapshot::Kind::kHistogram) continue;
    for (const char* name : kHistogramNames) {
      if (series.name != name) continue;
      auto& [count, sum] = totals.histograms[name];
      count += series.histogram.count;
      sum += series.histogram.mean *
             static_cast<double>(series.histogram.count);
    }
  }
  return totals;
}

RegistryTotals Delta(const RegistryTotals& after,
                     const RegistryTotals& before) {
  RegistryTotals delta;
  for (const auto& [name, value] : after.counters) {
    delta.counters[name] = value - before.Counter(name);
  }
  for (const auto& [name, value] : after.histograms) {
    auto [count, sum] = before.Histogram(name);
    delta.histograms[name] = {value.first - count, value.second - sum};
  }
  return delta;
}

int64_t DirBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code error;
  if (dir.empty() || !fs::exists(dir, error)) return 0;
  for (const auto& entry : fs::directory_iterator(dir, error)) {
    if (entry.is_regular_file(error)) {
      total += static_cast<int64_t>(entry.file_size(error));
    }
  }
  return total;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Exact nearest-rank percentile of `sorted_ns`, in microseconds. Sets
// *beyond to the number of samples above the percentile's rank.
double PercentileUs(const std::vector<int64_t>& sorted_ns, double p,
                    int64_t* beyond) {
  int64_t n = static_cast<int64_t>(sorted_ns.size());
  if (n == 0) {
    *beyond = 0;
    return 0;
  }
  int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n))));
  *beyond = n - rank;
  return static_cast<double>(sorted_ns[rank - 1]) / 1000.0;
}

// Total length of the union of [start, end) intervals, in nanoseconds.
int64_t UnionNs(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = -1;
  for (const auto& [start, end] : intervals) {
    if (start > cur_end) {
      if (cur_end > cur_start) total += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (cur_end > cur_start) total += cur_end - cur_start;
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[128];
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, ",
                    i == 0 ? "" : ", ", e.name.c_str(),
                    std::isfinite(e.value) ? e.value : 0.0);
      out += buf;
      out += "\"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// Per-layer figures from the spans of traced, committed transactions.
void SpanMetrics(const std::vector<ClientState>& states, MetricSink* out,
                 const std::string& spans_path) {
  using mtdb::net::RpcType;
  int64_t txns = 0;
  int64_t write_txns = 0;
  double self_ns = 0;
  double rpcs = 0;
  double begin_ns = 0;
  double connect_ns = 0;
  double prepare_ns = 0;
  double commit_ns = 0;
  int64_t mints = 0;
  double mint_ns = 0;
  std::map<std::string, std::vector<int64_t>> rtt_ns;
  std::map<std::string, std::vector<int64_t>> server_ns;
  double transport_ns = 0;
  int64_t transport_n = 0;

  auto group_of = [](RpcType type) -> const char* {
    switch (type) {
      case RpcType::kBegin:
        return "begin";
      case RpcType::kExecute:
      case RpcType::kExecutePrepared:
        return "execute";
      case RpcType::kCommit:
      case RpcType::kCommitPrepared:
        return "commit";
      default:
        return nullptr;
    }
  };

  FILE* file = std::fopen(spans_path.c_str(), "w");
  if (file != nullptr) {
    std::fprintf(file,
                 "txn,kind,rpc,machine,trace_id,start_ns,end_ns,server_us,"
                 "committed,write\n");
  }
  for (const ClientState& state : states) {
    const std::deque<Span>& spans = state.trace.spans;
    size_t i = 0;
    while (i < spans.size()) {
      size_t j = i;
      while (j < spans.size() && spans[j].txn == spans[i].txn) ++j;
      // [i, j) is one transaction; its kTxn span closes the group.
      const Span& txn = spans[j - 1];
      for (size_t k = i; file != nullptr && k < j; ++k) {
        const Span& s = spans[k];
        std::fprintf(file,
                     "%" PRIu64 ",%d,%s,%d,%" PRIu64 ",%" PRId64 ",%" PRId64
                     ",%" PRId64 ",%d,%d\n",
                     s.txn, static_cast<int>(s.kind),
                     s.kind == SpanKind::kRpc
                         ? std::string(mtdb::net::RpcTypeName(s.rpc_type))
                               .c_str()
                         : "",
                     s.machine, s.trace_id, s.start_ns, s.end_ns, s.server_us,
                     s.committed ? 1 : 0, s.write ? 1 : 0);
      }
      for (size_t k = i; k < j; ++k) {
        const Span& s = spans[k];
        if (s.kind != SpanKind::kRpc || s.end_ns == 0) continue;
        int64_t d = s.end_ns - s.start_ns;
        if (s.rpc_type == RpcType::kPrepareStatement) {
          ++mints;
          mint_ns += static_cast<double>(d);
        }
        if (const char* group = group_of(s.rpc_type)) {
          rtt_ns[group].push_back(d);
          if (s.server_us >= 0) server_ns[group].push_back(s.server_us * 1000);
        }
        if (s.server_us >= 0) {
          transport_ns += static_cast<double>(d - s.server_us * 1000);
          ++transport_n;
        }
      }
      if (txn.kind == SpanKind::kTxn && txn.committed) {
        ++txns;
        std::vector<std::pair<int64_t, int64_t>> all;
        std::vector<std::pair<int64_t, int64_t>> prepare;
        std::vector<std::pair<int64_t, int64_t>> commit;
        for (size_t k = i; k < j; ++k) {
          const Span& s = spans[k];
          if (s.kind == SpanKind::kConnect || s.kind == SpanKind::kPrepareSet) {
            connect_ns += static_cast<double>(s.end_ns - s.start_ns);
          }
          if (s.kind != SpanKind::kRpc || s.end_ns == 0) continue;
          all.emplace_back(s.start_ns, s.end_ns);
          rpcs += 1;
          if (s.rpc_type == RpcType::kBegin) {
            begin_ns += static_cast<double>(s.end_ns - s.start_ns);
          } else if (s.rpc_type == RpcType::kPrepare) {
            prepare.emplace_back(s.start_ns, s.end_ns);
          } else if (s.rpc_type == RpcType::kCommit ||
                     s.rpc_type == RpcType::kCommitPrepared) {
            commit.emplace_back(s.start_ns, s.end_ns);
          }
        }
        self_ns +=
            static_cast<double>(txn.end_ns - txn.start_ns - UnionNs(all));
        if (txn.write) {
          ++write_txns;
          prepare_ns += static_cast<double>(UnionNs(prepare));
          commit_ns += static_cast<double>(UnionNs(commit));
        }
      }
      i = j;
    }
  }
  if (file != nullptr) std::fclose(file);

  auto p50_us = [](std::vector<int64_t>* v) {
    std::sort(v->begin(), v->end());
    int64_t beyond = 0;
    return PercentileUs(*v, 50, &beyond);
  };
  double n = static_cast<double>(txns);
  out->Add("cluster.self_us", Ratio(self_ns, n) / 1000, "us");
  out->Add("cluster.rpcs_per_txn", Ratio(rpcs, n), "count");
  out->Add("cluster.begin_rpc_us", Ratio(begin_ns, n) / 1000, "us");
  out->Add("cluster.connect_us", Ratio(connect_ns, n) / 1000, "us");
  out->Add("cluster.prepare_phase_us",
           Ratio(prepare_ns, static_cast<double>(write_txns)) / 1000, "us");
  out->Add("cluster.commit_phase_us",
           Ratio(commit_ns, static_cast<double>(write_txns)) / 1000, "us");
  for (const char* group : {"begin", "execute", "commit"}) {
    out->Add(std::string("net.") + group + "_rtt_us", p50_us(&rtt_ns[group]),
             "us");
    out->Add(std::string("net.") + group + "_server_us",
             p50_us(&server_ns[group]), "us");
  }
  out->Add("net.transport_us",
           Ratio(transport_ns, static_cast<double>(transport_n)) / 1000, "us");
  out->Add("catalog.handle_mints_per_ktxn",
           Ratio(static_cast<double>(mints), n) * 1000, "count");
  out->Add("catalog.mint_us",
           Ratio(mint_ns, static_cast<double>(mints)) / 1000, "us");
}

// Committed read and write latencies of one stretch of the window.
struct Latencies {
  std::vector<int64_t> read_ns;
  std::vector<int64_t> write_ns;

  size_t committed() const { return read_ns.size() + write_ns.size(); }
  void Sort() {
    std::sort(read_ns.begin(), read_ns.end());
    std::sort(write_ns.begin(), write_ns.end());
  }
};

// txn_per_s and the read and write p50s, each the median of its values in
// the kSubWindows parts of the window, and the same over the whole window
// (window.*). The p50s and p99s are exact; the p99s are reported over the
// whole window only and are not bounded (see workloads.json, "unbounded").
// Returns the fewest samples beyond a reported percentile; *tps_line lists
// the rate of each part, to tell a stall or a drift from a slow run.
int64_t LatencyMetrics(const std::vector<ClientState>& states,
                       int64_t window_start, int64_t window_end,
                       MetricSink* out, std::string* tps_line) {
  Latencies whole;
  std::vector<Latencies> parts(kSubWindows);
  const int64_t span_ns = window_end - window_start;
  for (const ClientState& state : states) {
    for (const Sample& s : state.samples) {
      if (!s.committed || s.start_ns < window_start || s.end_ns > window_end) {
        continue;
      }
      Latencies& part = parts[std::min<int64_t>(
          kSubWindows - 1, (s.end_ns - window_start) * kSubWindows / span_ns)];
      const int64_t ns = s.end_ns - s.start_ns;
      (s.write ? whole.write_ns : whole.read_ns).push_back(ns);
      (s.write ? part.write_ns : part.read_ns).push_back(ns);
    }
  }
  const double window_s = static_cast<double>(span_ns) / 1e9;
  const double part_s = window_s / kSubWindows;
  int64_t min_beyond = INT64_MAX;
  auto p50_us = [&min_beyond](const std::vector<int64_t>& sorted) {
    int64_t beyond = 0;
    double us = PercentileUs(sorted, 50, &beyond);
    min_beyond = std::min(min_beyond, beyond);
    return us;
  };
  std::vector<double> part_tps;
  std::vector<double> part_read_p50;
  std::vector<double> part_write_p50;
  for (Latencies& part : parts) {
    part.Sort();
    part_tps.push_back(static_cast<double>(part.committed()) / part_s);
    part_read_p50.push_back(p50_us(part.read_ns));
    part_write_p50.push_back(p50_us(part.write_ns));
    if (!tps_line->empty()) *tps_line += ", ";
    *tps_line += std::to_string(static_cast<int64_t>(part_tps.back()));
  }
  out->Add("txn_per_s", Median(part_tps), "1/s");
  out->Add("read_txn_p50_us", Median(part_read_p50), "us");
  out->Add("write_txn_p50_us", Median(part_write_p50), "us");

  whole.Sort();
  out->Add("window.txn_per_s", static_cast<double>(whole.committed()) / window_s,
           "1/s");
  out->Add("window.read_txn_p50_us", p50_us(whole.read_ns), "us");
  out->Add("window.write_txn_p50_us", p50_us(whole.write_ns), "us");
  for (const auto& [name, sorted] :
       {std::pair{"read_txn_p99_us", &whole.read_ns},
        std::pair{"write_txn_p99_us", &whole.write_ns}}) {
    int64_t beyond = 0;
    out->Add(name, PercentileUs(*sorted, 99, &beyond), "us");
    min_beyond = std::min(min_beyond, beyond);
  }
  return min_beyond;
}

// Per-layer counts and means from deltas of the program's mtdb_* series
// over the window, per committed transaction where the name says so.
void RegistryMetrics(const RegistryTotals& delta, double committed,
                     int64_t writes, double window_s, int64_t wal_bytes,
                     MetricSink* out) {
  const double ktxn = committed / 1000;
  auto count = [&](const char* name) {
    return static_cast<double>(delta.Counter(name));
  };
  auto mean = [&](const char* name) {
    auto [n, sum] = delta.Histogram(name);
    return Ratio(sum, static_cast<double>(n));
  };
  out->Add("net.bytes_per_txn",
           Ratio(count("mtdb_rpc_request_bytes_total") +
                     count("mtdb_rpc_response_bytes_total"),
                 committed),
           "B");
  out->Add("net.timeouts", count("mtdb_rpc_timeout_total"), "count");
  out->Add("catalog.reloads_per_ktxn",
           Ratio(count("mtdb_catalog_reloads_total"), ktxn), "count");
  out->Add("catalog.evictions_per_ktxn",
           Ratio(count("mtdb_catalog_evictions_total"), ktxn), "count");
  out->Add("catalog.prepared_evicted_per_ktxn",
           Ratio(count("mtdb_prepared_evicted"), ktxn), "count");
  out->Add("qos.queue_wait_mean_us", mean("mtdb_qos_queue_wait_us"), "us");
  out->Add("qos.throttled", count("mtdb_qos_throttled_total"), "count");
  out->Add("qos.shed", count("mtdb_qos_shed_total"), "count");
  double hits = count("mtdb_plan_cache_hit_total");
  double misses = count("mtdb_plan_cache_miss_total");
  out->Add("sql.plan_cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  out->Add("sql.plans_per_ktxn", Ratio(count("mtdb_sql_plan_total"), ktxn),
           "count");
  out->Add("storage.lock_waits_per_ktxn",
           Ratio(static_cast<double>(
                     delta.Histogram("mtdb_lock_wait_us").first),
                 ktxn),
           "count");
  out->Add("storage.lock_wait_mean_us", mean("mtdb_lock_wait_us"), "us");
  out->Add("storage.deadlocks", count("mtdb_deadlock_total"), "count");
  out->Add("storage.lock_timeouts", count("mtdb_lock_timeout_total"), "count");
  double syncs = count("mtdb_wal_syncs_total");
  out->Add("wal.records_per_sync",
           Ratio(count("mtdb_wal_appends_total"), syncs), "count");
  out->Add("wal.syncs_per_s", syncs / window_s, "1/s");
  out->Add("wal.flush_mean_us", mean("mtdb_wal_flush_latency_us"), "us");
  out->Add("wal.bytes_per_write_txn",
           Ratio(static_cast<double>(wal_bytes), static_cast<double>(writes)),
           "B");
}

int Main(int argc, char** argv) {
  Config c = ParseFlags(argc, argv);
  std::error_code error;
  fs::create_directories(c.out_dir, error);

  // --- set-up, repeated; the first cluster is the one measured ---
  std::vector<double> setup_s;
  int64_t rss_before = RssBytes();
  int64_t t0 = NowNs();
  auto built = BuildCluster(c, 0);
  if (!built.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Cluster> cluster = std::move(*built);
  setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  double bytes_per_tenant =
      static_cast<double>(RssBytes() - rss_before) / c.tenants;
  for (int r = 1; r < c.setup_repeats; ++r) {
    int64_t start = NowNs();
    auto extra = BuildCluster(c, r);
    if (!extra.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   extra.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  // --- closed-loop run ---
  RunControl control;
  std::vector<ClientState> states(kClients);
  std::vector<std::thread> threads;
  for (int client = 0; client < kClients; ++client) {
    threads.emplace_back(ClientLoop, std::cref(c), cluster.get(), client,
                         &control, &states[client]);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(kWarmupMs));

  RegistryTotals before = ReadRegistry();
  int64_t wal_before = DirBytes(cluster->wal_dir);
  const CpuJiffies cpu_before = ReadCpuJiffies();
  const int64_t window_start = NowNs();
  const int64_t window_ns = static_cast<int64_t>(c.seconds * 1e9);
  int64_t traced_ns = 0;
  if (c.trace) {
    // Alternate traced and untraced slices so that both see the same
    // cluster state; their throughputs give the tracing overhead.
    bool traced = false;
    int64_t slice_start = window_start;
    while (slice_start < window_start + window_ns) {
      traced = !traced;
      control.traced_slice.store(traced, std::memory_order_relaxed);
      int64_t slice_end = std::min(slice_start + kSliceMs * 1'000'000,
                                   window_start + window_ns);
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(slice_end - NowNs()));
      int64_t now = NowNs();
      if (traced) traced_ns += now - slice_start;
      slice_start = now;
    }
    control.traced_slice.store(false, std::memory_order_relaxed);
  } else {
    std::this_thread::sleep_for(std::chrono::nanoseconds(window_ns));
  }
  const int64_t window_end = NowNs();
  const CpuJiffies cpu_after = ReadCpuJiffies();
  RegistryTotals delta = Delta(ReadRegistry(), before);
  int64_t wal_bytes = DirBytes(cluster->wal_dir) - wal_before;
  control.phase.store(kStop);
  for (std::thread& thread : threads) thread.join();
  const double window_s = static_cast<double>(window_end - window_start) / 1e9;

  // --- outcomes inside the window ---
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t attempts = 0;
  int64_t aborted = 0;
  int64_t committed_traced = 0;
  int64_t committed_untraced = 0;
  int64_t interactions = 0;
  int64_t failed = 0;
  int64_t committed_total = 0;
  for (const ClientState& state : states) {
    committed_total += state.committed_total;
    for (const Sample& s : state.samples) {
      if (s.start_ns < window_start || s.end_ns > window_end) continue;
      ++attempts;
      if (!s.committed) {
        ++aborted;
        continue;
      }
      ++(s.write ? writes : reads);
      ++(s.traced ? committed_traced : committed_untraced);
    }
    for (const InteractionOutcome& o : state.interactions) {
      if (o.start_ns < window_start || o.end_ns > window_end) continue;
      ++interactions;
      if (!o.committed) ++failed;
    }
  }
  const double committed = static_cast<double>(reads + writes);

  // --- correctness ---
  CheckLog checks;
  checks.Expect(committed > 0, "transactions committed");
  checks.Expect(committed_total ==
                    cluster->controller->committed_transactions(),
                "benchmark commit count equals the controller's");
  auto& registry = mtdb::obs::MetricsRegistry::Global();
  checks.Expect(registry.SumCounter("mtdb_rpc_timeout_total") == 0,
                "no RPC timed out");
  checks.Expect(registry.SumCounter("mtdb_machine_failover_total") == 0,
                "no machine failed over");
  CheckReplicasAgree(cluster->controller.get(), cluster->tenants, &checks);
  if (c.wal) CheckWalRecovery(cluster->controller.get(), &checks);

  // --- end-to-end metrics ---
  MetricSink metrics;
  metrics.Add("setup_s", Median(setup_s), "s");
  std::string tps_line;
  int64_t min_beyond =
      LatencyMetrics(states, window_start, window_end, &metrics, &tps_line);
  metrics.Add("bytes_per_tenant", bytes_per_tenant, "B");
  checks.Expect(min_beyond >= 10,
                "at least ten samples beyond each reported percentile");

  // --- per-layer metrics (traced runs) ---
  if (c.trace) {
    double untraced_s = window_s - static_cast<double>(traced_ns) / 1e9;
    double traced_tps = Ratio(static_cast<double>(committed_traced),
                              static_cast<double>(traced_ns) / 1e9);
    double untraced_tps =
        Ratio(static_cast<double>(committed_untraced), untraced_s);
    SpanMetrics(states, &metrics,
                c.out_dir + "/spans-" + c.workload + ".csv");
    RegistryMetrics(delta, committed, writes, window_s, wal_bytes, &metrics);
    metrics.Add("failed_frac",
                Ratio(static_cast<double>(aborted),
                      static_cast<double>(attempts)),
                "ratio");
    metrics.Add("trace.overhead_frac",
                untraced_tps > 0 ? 1 - traced_tps / untraced_tps : 0, "ratio");
  }

  std::fprintf(stderr,
               "perfbench: %s seed=%" PRIu64 " window=%.3fs committed=%.0f "
               "(read %" PRId64 ", write %" PRId64 ") attempts=%" PRId64
               " aborted=%" PRId64 " checks=%d %s\n",
               c.workload.c_str(), c.seed, window_s, committed, reads, writes,
               attempts, aborted, checks.checks(),
               checks.all_passed() ? "passed" : "FAILED");
  std::fprintf(stderr,
               "perfbench: fewest samples beyond a percentile: %" PRId64 "\n",
               min_beyond);
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
      ", \"samples\": {\"read\": %" PRId64 ", \"write\": %" PRId64
      "}, \"sub_window_txn_per_s\": [%s], \"host_steal_frac\": %.4f"
      ", \"metrics\": %s}\n",
      checks.all_passed() ? "true" : "false", interactions, failed,
      reads, writes, tps_line.c_str(),
      Ratio(static_cast<double>(cpu_after.steal - cpu_before.steal),
            static_cast<double>(cpu_after.total - cpu_before.total)),
      metrics.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
