// mtdblint: project-rule checker for the mtdb tree.
//
// Eight rules, each encoding a convention the compiler cannot see:
//
//   raw-mutex        Outside src/platform, code must lock through the
//                    annotated platform::Mutex/Guard vocabulary — a raw
//                    std mutex/lock there bypasses both the thread-safety
//                    annotations and the lock-order graph. Escape hatch for
//                    the handful of deliberate uses (violation-reporting
//                    paths that must not recurse into the instrumentation):
//                    a comment `mtdblint: allow(raw-mutex)` on the line or
//                    one of the three lines above it. In src/storage/mvcc
//                    the escape is NOT honored: the timestamp oracle is
//                    part of the compile-time concurrency-proof surface,
//                    so its synchronization must stay on the annotated
//                    vocabulary unconditionally.
//
//   snapshot-lock    A lock-manager call on a path guarded by a *set*
//                    read-only flag (`if (txn->read_only) ... lock_manager_
//                    ...`) contradicts the MVCC contract that snapshot
//                    transactions never touch the LockManager. The
//                    sanctioned shapes are negated guards
//                    (`if (!txn->read_only) lock_manager_.ReleaseAll(...)`)
//                    or early returns before any lock call. Escape:
//                    `mtdblint: allow(snapshot-lock)`.
//
//   rpc-coverage     Every net::RpcType enumerator must be handled in both
//                    src/net/codec.cc (name/validation) and
//                    src/net/machine_service.cc (dispatch). Adding a message
//                    type and forgetting one side otherwise only fails at
//                    runtime, on the first use of the new RPC.
//
//   detached-thread  No `.detach()` anywhere: fire-and-forget threads
//                    outlive scopes, race static destruction, and evade the
//                    Strand/thread-join discipline. Escape:
//                    `mtdblint: allow(detached-thread)`.
//
//   todo-tag         Every TODO must carry an issue tag — `TODO(#123)` —
//                    so it is trackable; bare TODOs rot.
//
//   wal-sync         Direct file-durability calls — `fflush`/`fsync`/
//                    `fdatasync`/`fopen`/`std::FILE` — outside
//                    src/storage/wal/ are how ad-hoc durability paths creep
//                    back in around the group-commit pipeline: a stray
//                    fflush re-creates the one-fsync-per-commit bottleneck
//                    the LogWriter exists to remove, invisible to its
//                    mtdb_wal_* metrics and sync policies. Durable writes go
//                    through WriteAheadLog/LogWriter. Lines touching
//                    stdout/stderr are exempt (console I/O is not
//                    durability); other legitimate uses (benchmark JSON
//                    artifacts, dump files) must be justified with
//                    `mtdblint: allow(wal-sync)`.
//
//   tenant-map       A string-keyed member map (`std::map<std::string, …>
//                    foo_`) outside src/cluster/catalog is how unbounded
//                    per-database state creeps in: one entry per tenant,
//                    nothing that removes it, and at 10^5-10^6 tenants
//                    that is the memory bug. Each layer bounds its own
//                    per-tenant state where it lives, so a tenant-keyed map
//                    states its local bound — what limits its entries and
//                    what removes them — in a comment
//                    `mtdblint: allow(tenant-map)` on the line or one of
//                    the three lines above it.
//
//   copy-state       TenantRecord::copy (catalog::CopyState, the one state
//                    of every replica copy) is only ever *written* by
//                    ClusterController's copy methods in
//                    src/cluster/cluster_controller.cc (BeginCopy ...
//                    CompleteCopy/AbandonCopy), which the ReplicaBuilder
//                    drives. Everyone else (catalog, builder, tools) may
//                    read and compare it but never assign it, a field of
//                    it, or mutate its table sets; a stray write elsewhere
//                    silently corrupts an in-flight copy (e.g. unfreezing a
//                    cutover while the builder still believes begins are
//                    blocked). Comparisons (`==`, `!=`) are fine.
//                    Escape: `mtdblint: allow(copy-state)`.
//
// Usage: mtdblint [repo-root]   (default: current directory)
// Exit status: 0 clean, 1 findings, 2 usage/environment error.
//
// Deliberately textual (line-based, comment-aware) rather than AST-based:
// the rules target idioms with stable spellings, and a dependency-free
// scanner runs everywhere — including CI images without libclang.

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  int line;
  std::string rule;
  std::string message;
};

std::vector<Finding> g_findings;

void Report(const std::string& file, int line, const std::string& rule,
            const std::string& message) {
  g_findings.push_back({file, line, rule, message});
}

// The std-locking tokens banned outside src/platform. Spelled via string
// concatenation so this file does not itself contain the contiguous token.
const char* const kRawMutexTokens[] = {
    "std::"  "mutex",
    "std::"  "shared_mutex",
    "std::"  "recursive_mutex",
    "std::"  "timed_mutex",
    "std::"  "condition_variable",
    "std::"  "lock_guard",
    "std::"  "unique_lock",
    "std::"  "shared_lock",
    "std::"  "scoped_lock",
};

// Strips a trailing // comment (string literals are rare enough in lock
// declarations that we accept the approximation).
std::string CodePortion(const std::string& line) {
  size_t pos = line.find("//");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

bool HasEscape(const std::vector<std::string>& lines, size_t index,
               const std::string& rule) {
  const std::string needle = "mtdblint: allow(" + rule + ")";
  size_t first = index >= 3 ? index - 3 : 0;
  for (size_t i = first; i <= index; ++i) {
    if (lines[i].find(needle) != std::string::npos) return true;
  }
  return false;
}

std::vector<std::string> ReadLines(const fs::path& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

bool IsSourceFile(const fs::path& path) {
  auto ext = path.extension().string();
  return ext == ".cc" || ext == ".h";
}

// Paths are compared in generic (forward-slash) relative form.
std::string RelPath(const fs::path& root, const fs::path& path) {
  return fs::relative(path, root).generic_string();
}

bool InPlatform(const std::string& rel) {
  return rel.rfind("src/platform/", 0) == 0;
}

bool InMvcc(const std::string& rel) {
  return rel.rfind("src/storage/mvcc/", 0) == 0;
}

// Returns true when `code` opens an if whose condition tests a *set*
// read-only flag — `if (txn->read_only)`, `if (read_only_ && ...)`. The
// negated writer-path shape (`if (!txn->read_only) ...`) does not count.
bool IsReadOnlyGuard(const std::string& code) {
  size_t cond = code.find("if (");
  if (cond == std::string::npos) cond = code.find("if(");
  if (cond == std::string::npos) return false;
  size_t flag = code.find("read_only", cond);
  if (flag == std::string::npos) return false;
  // Walk back across the object expression (`txn->`, `this->`, names) to
  // see whether the test is negated.
  size_t back = flag;
  while (back > 0) {
    char c = code[back - 1];
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
        c == '>' || c == '-' || c == ':' || c == '(') {
      --back;
      continue;
    }
    break;
  }
  return back == 0 || code[back - 1] != '!';
}

const char* const kLockManagerTokens[] = {"lock_manager", "LockManager"};

// File-durability tokens banned outside src/storage/wal/ (rule wal-sync).
// Spelled via concatenation so this file's own strings are not uses.
const char* const kWalSyncTokens[] = {
    "std::"  "FILE",
    "fopen"  "(",
    "fflush" "(",
    "fsync"  "(",
    "fdatasync" "(",
};

bool InWalDir(const std::string& rel) {
  return rel.rfind("src/storage/wal/", 0) == 0;
}

bool InCatalog(const std::string& rel) {
  return rel.rfind("src/cluster/catalog/", 0) == 0;
}

bool IsCopyStateOwner(const std::string& rel) {
  return rel == "src/cluster/cluster_controller.cc";
}

// True when `code` writes copy state: an assignment (`=`, `+=`, ... but not
// `==`/`!=`/`<=`/`>=`) to `.copy`/`->copy` or one of its fields, a possibly
// namespace-qualified `CopyState{` / `CopyState()` aggregate on the right of
// a single `=`, or a mutating call on one of its members
// (`.copy.copied_tables.insert(`, `.copy.in_progress.clear()`). Reads such
// as `record.copy.active` or `snap.copy_target = ...` never match.
bool WritesCopyState(const std::string& code) {
  static const std::regex kWrite(
      R"((\.|->)copy\b(\.\w+)*\s*[-+*/%&|^]?=(?!=))"
      R"(|(^|[^=!<>])=\s*([A-Za-z_]\w*::)*CopyState\s*(\{|\(\s*\)))"
      R"(|(\.|->)copy\.\w+\.(insert|erase|clear|emplace|swap)\s*\()");
  return std::regex_search(code, kWrite);
}

// A string-keyed map declared as a *member* (trailing-underscore name on
// the same line as the type). Locals and parameters — which die with their
// scope — deliberately do not match; neither do underscore-less struct
// fields, the residual false-negative this textual heuristic accepts.
const std::regex kTenantMapRe(
    R"(std::(unordered_)?map<\s*std::string\s*,[^;]*>\s+([A-Za-z0-9_]*_)\s*($|;|\{|=|MTDB_GUARDED_BY))");

void CheckFile(const fs::path& root, const fs::path& path) {
  const std::string rel = RelPath(root, path);
  const std::vector<std::string> lines = ReadLines(path);
  // This file defines the rules; its own spellings are not uses.
  const bool self = rel == "tools/mtdblint.cc";

  // snapshot-lock state: brace depths at which a block guarded by a set
  // read-only flag opened; while one is active, lock-manager tokens are
  // findings.
  int depth = 0;
  std::vector<int> guard_stack;
  bool pending_guard = false;

  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& raw = lines[i];
    const std::string code = CodePortion(raw);
    const int lineno = static_cast<int>(i) + 1;

    if (!self && !InPlatform(rel)) {
      for (const char* token : kRawMutexTokens) {
        if (code.find(token) == std::string::npos) continue;
        // src/storage/mvcc gets no escape hatch: its synchronization is
        // part of the concurrency-proof surface.
        if (!InMvcc(rel) && HasEscape(lines, i, "raw-mutex")) continue;
        Report(rel, lineno, "raw-mutex",
               std::string(token) +
                   (InMvcc(rel)
                        ? " in src/storage/mvcc; the MVCC subsystem must use "
                          "the annotated platform::Mutex/Guard vocabulary "
                          "(no escape hatch here)"
                        : " outside src/platform; lock through platform::"
                          "Mutex/Guard (src/platform/mutex.h) or add "
                          "`mtdblint: allow(raw-mutex)` with a "
                          "justification"));
        break;  // one finding per line is enough
      }
    }

    if (!self) {
      const bool guard_line = IsReadOnlyGuard(code);
      if (guard_line || pending_guard || !guard_stack.empty()) {
        for (const char* token : kLockManagerTokens) {
          if (code.find(token) == std::string::npos) continue;
          if (HasEscape(lines, i, "snapshot-lock")) continue;
          Report(rel, lineno, "snapshot-lock",
                 std::string(token) +
                     " on a path guarded by a set read-only flag: snapshot "
                     "transactions must never touch the LockManager; guard "
                     "the lock call with the negated flag or add "
                     "`mtdblint: allow(snapshot-lock)` with a justification");
          break;
        }
      }
      if (guard_line) pending_guard = true;
      for (char c : code) {
        if (c == '{') {
          ++depth;
          if (pending_guard) {
            guard_stack.push_back(depth);
            pending_guard = false;
          }
        } else if (c == '}') {
          while (!guard_stack.empty() && guard_stack.back() == depth) {
            guard_stack.pop_back();
          }
          --depth;
        }
      }
      // A braceless guard covers only its single statement.
      if (pending_guard && !guard_line &&
          code.find(';') != std::string::npos) {
        pending_guard = false;
      }
      if (pending_guard && guard_line &&
          code.find(';') != std::string::npos) {
        pending_guard = false;  // `if (ro) return ...;` on one line
      }
    }

    if (!self && !InWalDir(rel)) {
      for (const char* token : kWalSyncTokens) {
        if (code.find(token) == std::string::npos) continue;
        // Console flushing is not durability.
        if (code.find("stdout") != std::string::npos ||
            code.find("stderr") != std::string::npos) {
          break;
        }
        if (HasEscape(lines, i, "wal-sync")) break;
        Report(rel, lineno, "wal-sync",
               std::string(token) +
                   " outside src/storage/wal/: durable writes must go "
                   "through the WriteAheadLog/LogWriter pipeline (its sync "
                   "policies and mtdb_wal_* metrics cover every fsync); for "
                   "non-durability file I/O add `mtdblint: allow(wal-sync)` "
                   "with a justification");
        break;  // one finding per line is enough
      }
    }

    if (!self && code.find(".detach()") != std::string::npos &&
        !HasEscape(lines, i, "detached-thread")) {
      Report(rel, lineno, "detached-thread",
             "detached thread: join it (or route the work through a "
             "cluster::Strand); `mtdblint: allow(detached-thread)` to "
             "override");
    }

    if (!self && !InCatalog(rel) &&
        std::regex_search(code, kTenantMapRe) &&
        !HasEscape(lines, i, "tenant-map")) {
      Report(rel, lineno, "tenant-map",
             "string-keyed member map outside src/cluster/catalog: one entry "
             "per database that nothing removes is the tenant-scale memory "
             "bug; state the map's local bound (what limits its entries and "
             "what removes them) in a `mtdblint: allow(tenant-map)` "
             "comment");
    }

    if (!self && !IsCopyStateOwner(rel) && WritesCopyState(code) &&
        !HasEscape(lines, i, "copy-state")) {
      Report(rel, lineno, "copy-state",
             "copy state written outside src/cluster/cluster_controller.cc: "
             "ClusterController's copy methods are its only writers (the "
             "ReplicaBuilder drives them); read and compare it elsewhere, "
             "never write it, or add `mtdblint: allow(copy-state)` with a "
             "justification");
    }

    size_t todo = raw.find("TODO");
    if (!self && todo != std::string::npos &&
        raw.compare(todo, 6, "TODO(#") != 0) {
      Report(rel, lineno, "todo-tag",
             "TODO without an issue tag; write TODO(#<issue>)");
    }
  }
}

// --- rpc-coverage ---

std::vector<std::string> ParseRpcTypeEnumerators(const fs::path& header) {
  std::vector<std::string> names;
  bool in_enum = false;
  for (const std::string& line : ReadLines(header)) {
    if (!in_enum) {
      if (line.find("enum class RpcType") != std::string::npos) {
        in_enum = true;
      }
      continue;
    }
    if (line.find("};") != std::string::npos) break;
    const std::string code = CodePortion(line);
    size_t k = code.find('k');
    if (k == std::string::npos) continue;
    size_t end = k;
    while (end < code.size() &&
           (std::isalnum(static_cast<unsigned char>(code[end])) ||
            code[end] == '_')) {
      ++end;
    }
    if (end > k + 1) names.push_back(code.substr(k, end - k));
  }
  return names;
}

void CheckRpcCoverage(const fs::path& root) {
  const fs::path header = root / "src/net/message.h";
  const std::vector<std::string> enumerators = ParseRpcTypeEnumerators(header);
  if (enumerators.empty()) {
    Report("src/net/message.h", 1, "rpc-coverage",
           "could not parse any enum class RpcType enumerators");
    return;
  }
  const struct {
    const char* file;
    const char* role;
  } sides[] = {
      {"src/net/codec.cc", "codec (RpcTypeName / frame validation)"},
      {"src/net/machine_service.cc", "MachineService dispatch"},
  };
  for (const auto& side : sides) {
    std::ostringstream all;
    for (const std::string& line : ReadLines(root / side.file)) {
      all << line << '\n';
    }
    const std::string haystack = all.str();
    for (const std::string& name : enumerators) {
      if (haystack.find("RpcType::" + name) == std::string::npos) {
        Report(side.file, 1, "rpc-coverage",
               "RpcType::" + name + " is never handled in " + side.role +
                   "; every message type needs a case on both sides");
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2) {
    std::fprintf(stderr, "usage: mtdblint [repo-root]\n");
    return 2;
  }
  const fs::path root = argc == 2 ? fs::path(argv[1]) : fs::current_path();
  if (!fs::exists(root / "src")) {
    std::fprintf(stderr, "mtdblint: %s does not look like the repo root\n",
                 root.string().c_str());
    return 2;
  }

  const char* kScanDirs[] = {"src", "bench", "tools", "examples"};
  size_t files = 0;
  for (const char* dir : kScanDirs) {
    fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file() || !IsSourceFile(entry.path())) continue;
      CheckFile(root, entry.path());
      ++files;
    }
  }
  CheckRpcCoverage(root);

  for (const Finding& f : g_findings) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  if (g_findings.empty()) {
    std::printf("mtdblint: %zu files clean\n", files);
    return 0;
  }
  std::fprintf(stderr, "mtdblint: %zu finding(s) across %zu files\n",
               g_findings.size(), files);
  return 1;
}
