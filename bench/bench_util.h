#ifndef MTDB_BENCH_BENCH_UTIL_H_
#define MTDB_BENCH_BENCH_UTIL_H_

#include <concepts>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace mtdb::bench {

// Prints a figure/table header in a consistent style across all harnesses.
void PrintHeader(const std::string& experiment_id, const std::string& title);

// Prints one aligned row: first cell is the row label, remaining cells are
// the series values.
void PrintRow(const std::vector<std::string>& cells);

// Formats a double with the given precision.
std::string Fmt(double value, int precision = 2);

// A harness's measurement window: MTDB_BENCH_MS times `scale` when the
// variable is set, `default_ms` otherwise.
int64_t BenchMs(int64_t default_ms, int64_t scale = 1);

// A harness's JSON report: one object built by dotted key path, e.g.
// Set("policies.group.p99_us", v). Members print in the order their keys
// were first set; setting a key again replaces its value in place.
class Report {
 public:
  template <typename T>
    requires std::integral<T> && (!std::same_as<T, bool>)
  void Set(std::string_view path, T value) {
    At(path).text = std::to_string(value);
  }
  void Set(std::string_view path, double value, int precision);
  void Set(std::string_view path, std::string_view value);

  // Records the harness's pass/fail rule as "gate" and its outcome as
  // "pass", and prints one verdict line.
  void Gate(std::string_view rule, bool pass);

  // Prints the object on stdout and, only when MTDB_BENCH_JSON names a
  // file, writes the same text there. Returns the exit status: 0 unless the
  // gate failed or the file could not be written.
  int Finish() const;

 private:
  struct Node {
    std::string key;
    std::string text;           // a value's JSON text; empty for an object
    std::vector<Node> members;  // an object's members
  };

  Node& At(std::string_view path);
  static void Append(const Node& node, int indent, std::string* out);

  Node root_;
  bool pass_ = true;
};

}  // namespace mtdb::bench

#endif  // MTDB_BENCH_BENCH_UTIL_H_
