#!/usr/bin/env bash
# Static-analysis gate over the mtdb sources: mtdblint (project rules),
# then clang-tidy (.clang-tidy: bugprone-*, concurrency-*, performance-*).
#
# Usage: tools/lint.sh [build-dir] [paths...]
#   build-dir  compile-commands directory (default: build; configured
#              automatically because CMAKE_EXPORT_COMPILE_COMMANDS is ON)
#   paths...   files or directories for clang-tidy (default: src bench
#              tools examples). mtdblint always scans its fixed rule scope.
#
# Exit status is non-zero on any finding from either tool.
#
# mtdblint is dependency-free and always runs (built on demand when the
# CMake binary is absent). When clang-tidy is not installed that half is
# skipped with exit 0 so local workflows on minimal containers keep
# working; CI sets LINT_STRICT=1, which turns a missing clang-tidy into a
# hard failure instead.
set -u -o pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
shift 2>/dev/null || true
PATHS=("$@")
if [ "${#PATHS[@]}" -eq 0 ]; then
  PATHS=(src bench tools examples)
fi

STATUS=0

# --- mtdblint: project rules (raw-mutex, snapshot-lock, rpc-coverage,
# detached-thread, todo-tag, tenant-map, wal-sync, copy-state). Hard gate: no external dependencies, so
# never skipped.
MTDBLINT="${BUILD_DIR}/tools/mtdblint"
if [ ! -x "${MTDBLINT}" ]; then
  MTDBLINT="${BUILD_DIR}/mtdblint-boot"
  if [ ! -x "${MTDBLINT}" ]; then
    mkdir -p "${BUILD_DIR}"
    echo "lint.sh: building mtdblint (${MTDBLINT})"
    "${CXX:-c++}" -std=c++20 -O1 -Wall -Wextra tools/mtdblint.cc \
      -o "${MTDBLINT}" || exit 1
  fi
fi
echo "lint.sh: mtdblint"
"${MTDBLINT}" . || STATUS=1

# --- clang-tidy ---
if ! command -v clang-tidy >/dev/null 2>&1; then
  if [ "${LINT_STRICT:-0}" = "1" ]; then
    echo "lint.sh: clang-tidy not found and LINT_STRICT=1" >&2
    exit 1
  fi
  echo "lint.sh: clang-tidy not found; skipping clang-tidy half" >&2
  exit "${STATUS}"
fi

if [ ! -f "${BUILD_DIR}/compile_commands.json" ]; then
  echo "lint.sh: ${BUILD_DIR}/compile_commands.json missing;" \
       "configure first: cmake -B ${BUILD_DIR} -S ." >&2
  exit 1
fi

mapfile -t FILES < <(find "${PATHS[@]}" -name '*.cc' | sort)
if [ "${#FILES[@]}" -eq 0 ]; then
  echo "lint.sh: no .cc files under: ${PATHS[*]}" >&2
  exit 1
fi

echo "lint.sh: clang-tidy over ${#FILES[@]} files (${PATHS[*]})"
for file in "${FILES[@]}"; do
  clang-tidy -p "${BUILD_DIR}" --quiet "${file}" || STATUS=1
done

if [ "${STATUS}" -ne 0 ]; then
  echo "lint.sh: findings reported (see above)" >&2
fi
exit "${STATUS}"
