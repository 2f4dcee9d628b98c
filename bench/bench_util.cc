#include "bench/bench_util.h"

#include <cstdlib>

namespace mtdb::bench {

namespace {

// Keys and values are the harnesses' own text: no control characters.
std::string Quote(std::string_view text) {
  std::string quoted = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  return quoted + "\"";
}

}  // namespace

void PrintHeader(const std::string& experiment_id, const std::string& title) {
  std::printf("\n=== %s: %s ===\n", experiment_id.c_str(), title.c_str());
}

void PrintRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf("%s%-*s", i == 0 ? "" : " ", i == 0 ? 28 : 14,
                cells[i].c_str());
  }
  std::printf("\n");
}

std::string Fmt(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

int64_t BenchMs(int64_t default_ms, int64_t scale) {
  const char* env = std::getenv("MTDB_BENCH_MS");
  return env != nullptr ? std::atoll(env) * scale : default_ms;
}

void Report::Set(std::string_view path, double value, int precision) {
  At(path).text = Fmt(value, precision);
}

void Report::Set(std::string_view path, std::string_view value) {
  At(path).text = Quote(value);
}

void Report::Gate(std::string_view rule, bool pass) {
  Set("gate", rule);
  At("pass").text = pass ? "true" : "false";
  pass_ = pass;
  std::printf("gate: %.*s: %s\n", static_cast<int>(rule.size()), rule.data(),
              pass ? "PASS" : "FAIL");
}

int Report::Finish() const {
  std::string text;
  Append(root_, 0, &text);
  text += '\n';
  std::fputs(text.c_str(), stdout);
  const char* path = std::getenv("MTDB_BENCH_JSON");
  if (path != nullptr) {
    // Benchmark JSON artifact, not a durability path. mtdblint: allow(wal-sync)
    std::FILE* file = std::fopen(path, "w");
    bool written = file != nullptr && std::fputs(text.c_str(), file) >= 0;
    if (file != nullptr && std::fclose(file) != 0) written = false;
    if (!written) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    std::printf("wrote %s\n", path);
  }
  return pass_ ? 0 : 1;
}

Report::Node& Report::At(std::string_view path) {
  Node* node = &root_;
  for (;;) {
    const size_t dot = path.find('.');
    const std::string_view key = path.substr(0, dot);
    auto it = node->members.begin();
    while (it != node->members.end() && it->key != key) ++it;
    if (it == node->members.end()) {
      node->members.push_back(Node{std::string(key), "", {}});
      it = node->members.end() - 1;
    }
    node = &*it;
    if (dot == std::string_view::npos) return *node;
    path.remove_prefix(dot + 1);
  }
}

void Report::Append(const Node& node, int indent, std::string* out) {
  if (!node.text.empty()) {
    *out += node.text;
    return;
  }
  *out += '{';
  for (size_t i = 0; i < node.members.size(); ++i) {
    *out += i == 0 ? "\n" : ",\n";
    out->append(indent + 2, ' ');
    *out += Quote(node.members[i].key) + ": ";
    Append(node.members[i], indent + 2, out);
  }
  if (!node.members.empty()) {
    *out += '\n';
    out->append(indent, ' ');
  }
  *out += '}';
}

}  // namespace mtdb::bench
