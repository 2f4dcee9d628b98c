// mtdbstat: dump the metrics registry of a running mtdbd.
//
//   mtdbstat [--grep PREFIX] [--watch WHAT] [--top N]
//            [--interval SECONDS [--count N]] HOST:PORT
//
// connects over TCP and issues kStats RPCs. Without flags it prints one
// metrics text dump to stdout and exits. With --interval it keeps polling,
// printing the per-window *delta* of every counter and gauge that moved
// (vmstat-style), which is what an operator actually wants when watching a
// live machine: rates, not lifetime totals. --count bounds the number of
// windows (default: poll forever). --grep keeps only metric lines whose
// name starts with PREFIX (e.g. --grep mtdb_mvcc_ to watch the MVCC
// versions), in both one-shot and interval mode. --top N keeps only the N
// largest scalar series — by value one-shot, by per-window delta with
// --interval — which is how you find the busiest machines and operations
// (histogram lines are dropped in --top mode). Series carry machine and
// operation labels only; per-tenant load is the controller's LoadMonitor.
// --watch WHAT is a named prefix shorthand; `--watch migrations` selects
// the live-migration series (mtdb_rebalance_*: started/completed/aborted
// counters, bytes copied, delta rounds, and the cutover pause histogram).
// Combine with --interval to watch migrations land in real time.
//
// Exits 0 on success, 1 on any failure (unreachable daemon, RPC error,
// empty dump), 2 on usage errors. Used by tools/mtdbd_smoke.sh and the CI
// smoke job.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/net/machine_client.h"
#include "src/net/tcp_transport.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--grep PREFIX] [--watch migrations] [--top N] "
               "[--interval SECONDS [--count N]] HOST:PORT\n",
               argv0);
  return 2;
}

// Parses the counter/gauge lines of a metrics text dump:
//   name{labels} VALUE
// Histogram lines ("... count=N mean=..." ) are skipped — windowed deltas of
// percentile summaries are not meaningful.
std::map<std::string, long long> ParseScalars(const std::string& dump) {
  std::map<std::string, long long> scalars;
  size_t start = 0;
  while (start < dump.size()) {
    size_t end = dump.find('\n', start);
    if (end == std::string::npos) end = dump.size();
    std::string line = dump.substr(start, end - start);
    start = end + 1;
    size_t space = line.rfind(' ');
    if (space == std::string::npos || space + 1 >= line.size()) continue;
    const std::string value_str = line.substr(space + 1);
    char* parse_end = nullptr;
    long long value = std::strtoll(value_str.c_str(), &parse_end, 10);
    if (parse_end == nullptr || *parse_end != '\0') continue;  // histogram etc.
    if (value_str.find('=') != std::string::npos) continue;
    scalars[line.substr(0, space)] = value;
  }
  return scalars;
}

// Keeps only the lines whose metric name starts with `prefix`.
std::string FilterByPrefix(const std::string& dump,
                           const std::string& prefix) {
  std::string out;
  size_t start = 0;
  while (start < dump.size()) {
    size_t end = dump.find('\n', start);
    if (end == std::string::npos) end = dump.size();
    if (dump.compare(start, prefix.size(), prefix) == 0) {
      out.append(dump, start, end - start);
      out.push_back('\n');
    }
    start = end + 1;
  }
  return out;
}

// Prints the `top` largest entries of (name, value) pairs, value-descending,
// name-ascending among ties so the output is stable across runs.
void PrintTop(std::vector<std::pair<std::string, long long>> entries,
              long long top, bool as_delta) {
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    long long lhs = a.second < 0 ? -a.second : a.second;
    long long rhs = b.second < 0 ? -b.second : b.second;
    if (lhs != rhs) return lhs > rhs;
    return a.first < b.first;
  });
  if (top >= 0 && entries.size() > static_cast<size_t>(top)) {
    entries.resize(static_cast<size_t>(top));
  }
  for (const auto& [key, value] : entries) {
    std::printf(as_delta ? "%s %+lld\n" : "%s %lld\n", key.c_str(), value);
  }
}

}  // namespace

int main(int argc, char** argv) {
  double interval_s = 0;
  long long count = -1;  // -1 = forever
  long long top = -1;    // -1 = no ranking
  std::string grep_prefix;
  std::string target;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
      interval_s = std::atof(argv[++i]);
      if (interval_s <= 0) return Usage(argv[0]);
    } else if (std::strcmp(argv[i], "--count") == 0 && i + 1 < argc) {
      count = std::atoll(argv[++i]);
      if (count <= 0) return Usage(argv[0]);
    } else if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      top = std::atoll(argv[++i]);
      if (top <= 0) return Usage(argv[0]);
    } else if (std::strcmp(argv[i], "--grep") == 0 && i + 1 < argc) {
      grep_prefix = argv[++i];
      if (grep_prefix.empty()) return Usage(argv[0]);
    } else if (std::strcmp(argv[i], "--watch") == 0 && i + 1 < argc) {
      const char* what = argv[++i];
      if (std::strcmp(what, "migrations") == 0) {
        grep_prefix = "mtdb_rebalance_";
      } else {
        std::fprintf(stderr, "mtdbstat: unknown --watch category '%s'\n",
                     what);
        return Usage(argv[0]);
      }
    } else if (argv[i][0] == '-') {
      return Usage(argv[0]);
    } else if (target.empty()) {
      target = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (target.empty()) return Usage(argv[0]);
  size_t colon = target.rfind(':');
  if (colon == std::string::npos) return Usage(argv[0]);
  std::string host = target.substr(0, colon);
  auto port = static_cast<uint16_t>(std::atoi(target.c_str() + colon + 1));

  mtdb::net::TcpTransport transport;
  transport.AddEndpoint(/*machine_id=*/0, host, port);
  mtdb::net::RpcOptions options;
  options.call_timeout_us = 10'000'000;
  mtdb::net::MachineClient client(&transport, options);

  auto fetch = [&]() -> mtdb::Result<std::string> {
    auto dump = client.Stats(/*machine_id=*/0);
    if (dump.ok() && dump->empty()) {
      return mtdb::Status::Internal("empty stats dump from " + target);
    }
    return dump;
  };

  if (interval_s <= 0) {
    auto dump = fetch();
    if (!dump.ok()) {
      std::fprintf(stderr, "mtdbstat: %s\n", dump.status().ToString().c_str());
      return 1;
    }
    std::string text =
        grep_prefix.empty() ? *dump : FilterByPrefix(*dump, grep_prefix);
    if (top < 0) {
      std::fputs(text.c_str(), stdout);
      return 0;
    }
    std::map<std::string, long long> scalars = ParseScalars(text);
    PrintTop({scalars.begin(), scalars.end()}, top, /*as_delta=*/false);
    return 0;
  }

  // Interval mode: baseline dump, then one delta report per window.
  auto baseline = fetch();
  if (!baseline.ok()) {
    std::fprintf(stderr, "mtdbstat: %s\n",
                 baseline.status().ToString().c_str());
    return 1;
  }
  std::map<std::string, long long> previous = ParseScalars(*baseline);
  for (long long window = 1; count < 0 || window <= count; ++window) {
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
    auto dump = fetch();
    if (!dump.ok()) {
      std::fprintf(stderr, "mtdbstat: %s\n", dump.status().ToString().c_str());
      return 1;
    }
    std::map<std::string, long long> current = ParseScalars(*dump);
    std::printf("--- window %lld (%.3gs) ---\n", window, interval_s);
    std::vector<std::pair<std::string, long long>> deltas;
    for (const auto& [key, value] : current) {
      if (!grep_prefix.empty() &&
          key.compare(0, grep_prefix.size(), grep_prefix) != 0) {
        continue;
      }
      auto it = previous.find(key);
      long long delta = value - (it == previous.end() ? 0 : it->second);
      if (delta == 0) continue;
      if (top < 0) {
        std::printf("%s %+lld\n", key.c_str(), delta);
      } else {
        deltas.emplace_back(key, delta);
      }
    }
    if (top >= 0) PrintTop(std::move(deltas), top, /*as_delta=*/true);
    std::fflush(stdout);
    previous = std::move(current);
  }
  return 0;
}
