// Tenant-metadata scale benchmark for the sharded lazy catalog
// (src/cluster/catalog/).
//
// The paper's sizing target is "a large number of small applications":
// 10^5-10^6 tiny databases per cluster, almost all of them idle at any
// moment. What has to stay cheap is (a) creating yet another tenant, (b)
// the per-tenant memory, and (c) a sleeping tenant's first query.
//
// Phases:
//   create   N databases (one table, one row each) on a 4-machine cluster
//            with replication 2; per-create latency percentiles + RSS
//            growth per tenant.
//   cold     evict ALL resident catalog state, then run one point read
//            (Connection::Execute) on a sample of tenants. It is each
//            sampled tenant's first query: a first catalog
//            materialization, a routing lookup in the controller's parse
//            cache and a first plan on the serving machine, from that
//            machine's parse cache (the text parses once per machine, not
//            once per tenant).
//   warm     the same reads again with everything resident.
//   reload   evict again, time the reads again and verify every sampled
//            tenant still answers — the "eviction is invisible to
//            correctness" invariant. Catalog eviction frees only prepared
//            registrations, so these reads reload the catalog's state but
//            hit the machines' plan caches.
//
// Prints one JSON report; exits non-zero if a sampled first query fails or
// if --baseline=<file> is given and create p99 or bytes/tenant regress more
// than 20% (plus an absolute slack) against the committed numbers. CI runs
// `tenant_scale --databases=5000 --baseline=BENCH_tenant_scale.json`;
// the committed file comes from a full 100k run (see EXPERIMENTS.md).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/cluster_controller.h"
#include "src/common/clock.h"
#include "src/common/histogram.h"

namespace mtdb {
namespace {

// VmRSS from /proc/self/status, in bytes; 0 when unavailable (non-Linux).
int64_t CurrentRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return atoll(line.c_str() + 6) * 1024;
    }
  }
  return 0;
}

// Pulls "key": value out of a committed baseline JSON (the same flat format
// this binary prints; no nesting, so a string scan is enough).
double BaselineValue(const std::string& text, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t pos = text.find(needle);
  if (pos == std::string::npos) return 0;
  return atof(text.c_str() + pos + needle.size());
}

std::string DbName(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "app%06d", i);
  return buf;
}

}  // namespace
}  // namespace mtdb

int main(int argc, char** argv) {
  using namespace mtdb;
  int databases = 100000;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--databases=", 12) == 0) {
      databases = atoi(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    } else {
      std::fprintf(stderr,
                   "usage: tenant_scale [--databases=N] [--baseline=FILE]\n");
      return 2;
    }
  }
  if (const char* env = std::getenv("MTDB_BENCH_DBS")) {
    databases = atoi(env);
  }

  ClusterControllerOptions options;
  options.default_replicas = 2;
  // A resident cap far below the tenant count, so the create phase itself
  // exercises steady-state eviction, not just the final sweep.
  options.catalog.max_resident = 4096;
  options.catalog.shards = 64;
  ClusterController controller(options);
  for (int m = 0; m < 4; ++m) controller.AddMachine({});

  // --- create ---
  int64_t rss_before = CurrentRssBytes();
  Histogram create_us;
  int64_t create_start = NowMicros();
  for (int i = 0; i < databases; ++i) {
    std::string db = DbName(i);
    int64_t t0 = NowMicros();
    if (!controller.CreateDatabase(db).ok() ||
        !controller.ExecuteDdl(db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
             .ok()) {
      std::fprintf(stderr, "tenant_scale: create %s failed\n", db.c_str());
      return 1;
    }
    create_us.Record(NowMicros() - t0);
    if (!controller.BulkLoad(db, "t", {{Value(int64_t{0}), Value(int64_t{7})}})
             .ok()) {
      std::fprintf(stderr, "tenant_scale: load %s failed\n", db.c_str());
      return 1;
    }
  }
  double create_total_s =
      static_cast<double>(NowMicros() - create_start) / 1e6;
  int64_t rss_after = CurrentRssBytes();
  int64_t bytes_per_tenant =
      rss_after > rss_before && databases > 0
          ? (rss_after - rss_before) / databases
          : 0;

  // Sampled tenants, spread across the whole id space.
  int sample = databases < 256 ? databases : 256;
  std::vector<std::string> sampled;
  for (int s = 0; s < sample; ++s) {
    sampled.push_back(DbName(static_cast<int>(
        static_cast<int64_t>(s) * databases / sample)));
  }

  auto run_reads = [&](Histogram& hist) -> bool {
    for (const std::string& db : sampled) {
      int64_t t0 = NowMicros();
      auto conn = controller.Connect(db);
      auto result = conn->Execute("SELECT v FROM t WHERE id = ?",
                                  {Value(int64_t{0})});
      if (!result.ok() || result->rows.size() != 1) {
        std::fprintf(stderr, "tenant_scale: first query on %s failed: %s\n",
                     db.c_str(), result.status().ToString().c_str());
        return false;
      }
      hist.Record(NowMicros() - t0);
    }
    return true;
  };

  // --- cold: nothing resident ---
  auto* catalog = controller.tenant_catalog();
  (void)catalog->EvictResidentDownTo(0);
  Histogram cold_us;
  bool pass = run_reads(cold_us);

  // --- warm: everything the sample touched is resident ---
  Histogram warm_us;
  pass = pass && run_reads(warm_us);

  // --- reload: evict again, every tenant must still answer ---
  (void)catalog->EvictResidentDownTo(0);
  Histogram reload_us;
  pass = pass && run_reads(reload_us);

  catalog::CatalogStats stats = catalog->Stats();

  std::string gate = "every sampled tenant answers its first query";
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    double base_p99 = BaselineValue(text, "create_p99_us");
    double base_bytes = BaselineValue(text, "bytes_per_tenant");
    // 20% relative headroom plus an absolute slack floor, so sub-millisecond
    // jitter and RSS page granularity can't flip the gate.
    double p99 = static_cast<double>(create_us.Percentile(99));
    gate += ", create_p99_us <= 1.2x baseline + 1000 and bytes_per_tenant "
            "<= 1.2x baseline + 512";
    if (base_p99 > 0 && p99 > base_p99 * 1.2 + 1000.0) pass = false;
    if (base_bytes > 0 && bytes_per_tenant > 0 &&
        static_cast<double>(bytes_per_tenant) > base_bytes * 1.2 + 512.0) {
      pass = false;
    }
  }

  bench::Report report;
  report.Set("databases", databases);
  report.Set("create_total_s", create_total_s, 1);
  report.Set("create_p50_us", create_us.Percentile(50));
  report.Set("create_p99_us", create_us.Percentile(99));
  report.Set("bytes_per_tenant", bytes_per_tenant);
  report.Set("cold_first_query_p50_us", cold_us.Percentile(50));
  report.Set("cold_first_query_p99_us", cold_us.Percentile(99));
  report.Set("warm_query_p50_us", warm_us.Percentile(50));
  report.Set("warm_query_p99_us", warm_us.Percentile(99));
  report.Set("reload_first_query_p50_us", reload_us.Percentile(50));
  report.Set("reload_first_query_p99_us", reload_us.Percentile(99));
  report.Set("catalog_tenants", stats.tenants);
  report.Set("catalog_resident", stats.resident);
  report.Set("catalog_evictions", stats.evictions);
  report.Set("catalog_reloads", stats.reloads);
  report.Set("prepared_evicted", stats.prepared_evicted);
  report.Gate(gate, pass);
  return report.Finish();
}
