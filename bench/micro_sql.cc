// Microbenchmark for the split SQL path (parse → plan → execute).
//
// Three sections, printed as a table and as the harness's JSON report:
//
//  1. Stage breakdown — ns/statement spent in parse, plan, and execute for a
//     TPC-W-style point SELECT, measured by timing parse alone, then
//     parse+plan, then the full execution through a plan-cache hit.
//  2. Engine throughput — statements/second for the same statement executed
//     (a) unprepared: Parse + PlanBorrowed + ExecutePlan on every call, and
//     (b) text-cached: ExecuteSql with a '?' statement (plan-cache hit).
//     Two scan-heavy TPC-W browse statements follow in ns/statement, at
//     perfbench browse_hot's data scale: BestSellers (a 250-row PK range
//     scan grouped by item) and SearchByTitle (LIKE over all 100 items).
//  3. Cluster round trip (information only) — a TPC-W home-interaction
//     transaction driven over the in-proc RPC path through
//     Connection::Execute and through Connection::ExecutePrepared. Both ship
//     the same SQL text; ExecutePrepared only skips the controller's routing
//     lookup in its parse cache. The machine latency model is zeroed so the
//     SQL path dominates.
//
// Exits non-zero unless text-cached throughput is strictly above unprepared
// — CI runs this as a smoke test of the plan cache.
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/cluster_controller.h"
#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/obs/metrics.h"
#include "src/sql/executor.h"
#include "src/sql/parser.h"
#include "src/sql/planner.h"
#include "src/storage/engine.h"
#include "src/workload/tpcw.h"

namespace mtdb::bench {
namespace {

constexpr int64_t kItems = 1000;
const char* kPointSelect =
    "SELECT i_title, i_cost FROM item WHERE i_id = ?";

// BestSellers and SearchByTitle as the TPC-W driver prepares them.
const char* kBestSellers =
    "SELECT ol_i_id, SUM(ol_qty) AS sold FROM order_line WHERE ol_id < ? "
    "GROUP BY ol_i_id ORDER BY sold DESC LIMIT 10";
const char* kSearchByTitle =
    "SELECT i_id, i_title FROM item WHERE i_title LIKE ? LIMIT 50";
constexpr int64_t kBrowseItems = 100;
constexpr int64_t kBrowseOrderLines = 250;

// Database "browse": TPC-W's item and order_line tables at browse_hot's
// scale (100 items; 100 orders of 1-4 lines, 250 lines in all).
void LoadBrowseTables(Engine* engine) {
  (void)engine->CreateDatabase("browse");
  (void)engine->CreateTable(
      "browse", TableSchema("item",
                            {{"i_id", ColumnType::kInt64, true},
                             {"i_title", ColumnType::kString, false},
                             {"i_a_id", ColumnType::kInt64, false},
                             {"i_subject", ColumnType::kString, false},
                             {"i_cost", ColumnType::kDouble, false},
                             {"i_stock", ColumnType::kInt64, false},
                             {"i_pub_date", ColumnType::kInt64, false},
                             {"i_total_sold", ColumnType::kInt64, false}},
                            0));
  (void)engine->CreateTable(
      "browse", TableSchema("order_line",
                            {{"ol_id", ColumnType::kInt64, true},
                             {"ol_o_id", ColumnType::kInt64, false},
                             {"ol_i_id", ColumnType::kInt64, false},
                             {"ol_qty", ColumnType::kInt64, false},
                             {"ol_discount", ColumnType::kDouble, false}},
                            0));
  Random rng(3);
  std::vector<Row> items;
  for (int64_t i = 0; i < kBrowseItems; ++i) {
    items.push_back({Value(i), Value("title_" + rng.AlphaString(12)),
                     Value(i % 25), Value("ARTS"), Value(10.0),
                     Value(int64_t{50}), Value(i), Value(int64_t{0})});
  }
  (void)engine->BulkInsert("browse", "item", items);
  std::vector<Row> lines;
  for (int64_t l = 0; l < kBrowseOrderLines; ++l) {
    lines.push_back({Value(l), Value(l * 2 / 5),
                     Value(static_cast<int64_t>(rng.Uniform(kBrowseItems))),
                     Value(static_cast<int64_t>(1 + rng.Uniform(5))),
                     Value(0.0)});
  }
  (void)engine->BulkInsert("browse", "order_line", lines);
}

std::unique_ptr<Engine> MakeLoadedEngine() {
  auto engine = std::make_unique<Engine>("bench");
  (void)engine->CreateDatabase("db");
  (void)engine->CreateTable(
      "db", TableSchema("item",
                        {{"i_id", ColumnType::kInt64, true},
                         {"i_title", ColumnType::kString, false},
                         {"i_cost", ColumnType::kInt64, false}},
                        0));
  std::vector<Row> rows;
  for (int64_t i = 0; i < kItems; ++i) {
    rows.push_back({Value(i), Value("title_" + std::to_string(i)),
                    Value(i % 100)});
  }
  (void)engine->BulkInsert("db", "item", rows);
  return engine;
}

// Runs `op` repeatedly for ~duration_ms and returns ops/second.
template <typename Op>
double MeasureThroughput(int64_t duration_ms, Op op) {
  Stopwatch watch;
  int64_t ops = 0;
  while (watch.ElapsedMicros() < duration_ms * 1000) {
    op(ops);
    ++ops;
  }
  return static_cast<double>(ops) / watch.ElapsedSeconds();
}

// Average wall time of `op` in nanoseconds over ~duration_ms.
template <typename Op>
double MeasureNs(int64_t duration_ms, Op op) {
  Stopwatch watch;
  int64_t ops = 0;
  while (watch.ElapsedMicros() < duration_ms * 1000) {
    op(ops);
    ++ops;
  }
  return watch.ElapsedSeconds() * 1e9 / static_cast<double>(ops);
}

struct ClusterPair {
  double execute_tps = 0;
  double prepared_tps = 0;
};

// One TPC-W home-interaction-shaped transaction (customer row + item row),
// driven over the in-proc RPC path with and without prepared statements.
ClusterPair MeasureClusterRoundTrip(int64_t duration_ms) {
  ClusterControllerOptions options;
  options.default_replicas = 2;
  auto controller = std::make_unique<ClusterController>(options);
  for (int i = 0; i < 3; ++i) {
    // Zero latency model: measure the SQL path, not the simulated disk.
    controller->AddMachine(MachineOptions{});
  }
  if (!controller->CreateDatabase("shop", 2).ok()) return {};
  if (!workload::CreateTpcwSchema(controller.get(), "shop").ok()) return {};
  workload::TpcwScale scale;
  scale.items = 100;
  scale.customers = 100;
  scale.initial_orders = 20;
  if (!workload::LoadTpcwData(controller.get(), "shop", scale).ok()) {
    return {};
  }

  auto conn = controller->Connect("shop");
  const std::string customer_sql =
      "SELECT c_id, c_uname, c_fname FROM customer WHERE c_id = ?";
  const std::string item_sql =
      "SELECT i_id, i_title, i_cost FROM item WHERE i_id = ?";
  Random rng(7);
  ClusterPair pair;

  // Best-of-3 trials per variant to shave scheduler noise off the short runs.
  for (int trial = 0; trial < 3; ++trial) {
    double tps = MeasureThroughput(duration_ms, [&](int64_t) {
      Value customer(static_cast<int64_t>(rng.Uniform(scale.customers)) + 1);
      Value item(static_cast<int64_t>(rng.Uniform(scale.items)) + 1);
      (void)conn->Begin();
      (void)conn->Execute(customer_sql, {customer});
      (void)conn->Execute(item_sql, {item});
      (void)conn->Commit();
    });
    pair.execute_tps = std::max(pair.execute_tps, tps);
  }

  auto customer_stmt = conn->Prepare(customer_sql);
  auto item_stmt = conn->Prepare(item_sql);
  if (!customer_stmt.ok() || !item_stmt.ok()) return pair;
  for (int trial = 0; trial < 3; ++trial) {
    double tps = MeasureThroughput(duration_ms, [&](int64_t) {
      Value customer(static_cast<int64_t>(rng.Uniform(scale.customers)) + 1);
      Value item(static_cast<int64_t>(rng.Uniform(scale.items)) + 1);
      (void)conn->Begin();
      (void)conn->ExecutePrepared(*customer_stmt, {customer});
      (void)conn->ExecutePrepared(*item_stmt, {item});
      (void)conn->Commit();
    });
    pair.prepared_tps = std::max(pair.prepared_tps, tps);
  }
  return pair;
}

int Run() {
  const int64_t duration_ms = BenchMs(300);

  // Zero the registry so the counters reported below cover exactly this run.
  obs::MetricsRegistry::Global().ResetForTest();

  auto engine = MakeLoadedEngine();
  sql::SqlExecutor executor(engine.get());
  sql::Planner planner(engine.get());
  Random rng(1);
  uint64_t txn = 1;
  auto draw = [&rng] {
    return Value(static_cast<int64_t>(rng.Uniform(kItems)));
  };

  // --- Section 1: stage breakdown ---
  PrintHeader("micro_sql", "SQL path stage breakdown and throughput");
  double parse_ns = MeasureNs(duration_ms, [&](int64_t) {
    auto stmt = sql::Parse(kPointSelect);
    if (!stmt.ok()) std::abort();
  });
  double parse_plan_ns = MeasureNs(duration_ms, [&](int64_t) {
    auto stmt = sql::Parse(kPointSelect);
    if (!stmt.ok()) std::abort();
    auto plan = planner.PlanBorrowed("db", *stmt);
    if (!plan.ok()) std::abort();
  });
  // A '?' statement executes through a plan-cache hit, skipping parse and
  // plan, so its time per statement is the execute stage.
  double text_cached = MeasureThroughput(duration_ms, [&](int64_t) {
    (void)engine->Begin(txn);
    (void)executor.ExecuteSql(txn, "db", kPointSelect, {draw()});
    (void)engine->Commit(txn);
    ++txn;
  });
  double execute_ns = 1e9 / text_cached;
  double plan_ns = parse_plan_ns - parse_ns;
  PrintRow({"stage", "ns/stmt"});
  PrintRow({"parse", Fmt(parse_ns, 0)});
  PrintRow({"plan", Fmt(plan_ns, 0)});
  PrintRow({"execute (plan-cache hit)", Fmt(execute_ns, 0)});

  // --- Section 2: engine throughput ---
  double unprepared = MeasureThroughput(duration_ms, [&](int64_t) {
    (void)engine->Begin(txn);
    auto stmt = sql::Parse(kPointSelect);
    auto plan = planner.PlanBorrowed("db", *stmt);
    (void)executor.ExecutePlan(txn, "db", **plan, {draw()});
    (void)engine->Commit(txn);
    ++txn;
  });
  PrintRow({"engine variant", "stmts/sec"});
  PrintRow({"unprepared (parse+plan+execute)", Fmt(unprepared, 0)});
  PrintRow({"text-cached (plan-cache hit)", Fmt(text_cached, 0)});

  // The scan-heavy browse statements, each in its own transaction.
  LoadBrowseTables(engine.get());
  const Value best_sellers_window(int64_t{300});  // covers every line
  double best_sellers_ns = MeasureNs(duration_ms, [&](int64_t) {
    (void)engine->Begin(txn);
    auto r = executor.ExecuteSql(txn, "browse", kBestSellers,
                                 {best_sellers_window});
    if (!r.ok() || r->rows.size() != 10) std::abort();
    (void)engine->Commit(txn);
    ++txn;
  });
  double search_by_title_ns = MeasureNs(duration_ms, [&](int64_t) {
    (void)engine->Begin(txn);
    std::string prefix("title_");
    prefix += static_cast<char>('a' + rng.Uniform(26));
    auto r = executor.ExecuteSql(txn, "browse", kSearchByTitle,
                                 {Value(prefix + "%")});
    if (!r.ok()) std::abort();
    (void)engine->Commit(txn);
    ++txn;
  });
  PrintRow({"engine statement shape", "ns/stmt"});
  PrintRow({"BestSellers (250-row range, GROUP BY)",
            Fmt(best_sellers_ns, 0)});
  PrintRow({"SearchByTitle (100-row LIKE scan)", Fmt(search_by_title_ns, 0)});

  // --- Section 3: cluster round trip (information only) ---
  ClusterPair cluster = MeasureClusterRoundTrip(duration_ms);
  PrintRow({"cluster variant", "txns/sec"});
  PrintRow({"Execute (routing via parse cache)", Fmt(cluster.execute_tps, 0)});
  PrintRow({"ExecutePrepared (routing cached)", Fmt(cluster.prepared_tps, 0)});

  // --- Section 4: what the metrics registry saw across the whole run ---
  // The plan-cache hit rate and the per-phase counters come straight from
  // the instrumented SQL path, so the benchmark doubles as a check that the
  // instrumentation is alive where the numbers above say it should be.
  auto& registry = obs::MetricsRegistry::Global();
  int64_t cache_hits = registry.SumCounter("mtdb_plan_cache_hit_total");
  int64_t cache_misses = registry.SumCounter("mtdb_plan_cache_miss_total");
  double hit_rate =
      cache_hits + cache_misses > 0
          ? static_cast<double>(cache_hits) /
                static_cast<double>(cache_hits + cache_misses)
          : 0;
  int64_t parsed = registry.SumCounter("mtdb_sql_parse_total");
  int64_t planned = registry.SumCounter("mtdb_sql_plan_total");
  int64_t executed = registry.SumCounter("mtdb_sql_execute_total");
  PrintRow({"registry counter", "value"});
  PrintRow({"plan-cache hit rate",
            Fmt(hit_rate * 100, 1) + "% (" + std::to_string(cache_hits) +
                "/" + std::to_string(cache_hits + cache_misses) + ")"});
  PrintRow({"statements parsed", std::to_string(parsed)});
  PrintRow({"statements planned", std::to_string(planned)});
  PrintRow({"plans executed", std::to_string(executed)});

  Report report;
  report.Set("experiment", "micro_sql");
  report.Set("duration_ms_per_measurement", duration_ms);
  report.Set("stage_ns_per_stmt.parse", parse_ns, 0);
  report.Set("stage_ns_per_stmt.plan", plan_ns, 0);
  report.Set("stage_ns_per_stmt.execute_cached", execute_ns, 0);
  report.Set("engine_stmts_per_sec.unprepared", unprepared, 0);
  report.Set("engine_stmts_per_sec.text_cached", text_cached, 0);
  report.Set("engine_stmt_ns.best_sellers", best_sellers_ns, 0);
  report.Set("engine_stmt_ns.search_by_title", search_by_title_ns, 0);
  report.Set("cluster_txns_per_sec.execute", cluster.execute_tps, 0);
  report.Set("cluster_txns_per_sec.execute_prepared", cluster.prepared_tps, 0);
  report.Set("speedup.engine_text_cached_over_unprepared",
             unprepared > 0 ? text_cached / unprepared : 0, 2);
  report.Set("speedup.cluster_prepared_over_execute",
             cluster.execute_tps > 0
                 ? cluster.prepared_tps / cluster.execute_tps
                 : 0,
             2);
  report.Set("plan_cache.hits", cache_hits);
  report.Set("plan_cache.misses", cache_misses);
  report.Set("plan_cache.hit_rate", hit_rate, 4);
  report.Set("phase_counters.parse", parsed);
  report.Set("phase_counters.plan", planned);
  report.Set("phase_counters.execute", executed);

  // CI gate: the plan cache must pay — a hit skips parse+plan per call. The
  // cluster pair differs only by the controller's routing lookup, well
  // inside run-to-run noise, so it is reported but not gated.
  report.Gate("engine text_cached > unprepared stmts/sec",
              text_cached > unprepared);
  return report.Finish();
}

}  // namespace
}  // namespace mtdb::bench

int main() { return mtdb::bench::Run(); }
