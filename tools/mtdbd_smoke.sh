#!/usr/bin/env bash
# End-to-end smoke test for the TCP transport: start one mtdbd on an
# ephemeral port, run one TPC-W-style transaction against it over real
# sockets, and shut the daemon down cleanly.
#
# The smoke client ends with a teardown: it drops its database, re-creates
# it with fresh stock, and fails unless a snapshot read sees the fresh
# stock rather than the dropped tenant's. kDropDatabase is the only way a
# daemon hears that a tenant left, so this checks that it alone clears the
# daemon's state for the tenant.
#
# After the smoke transaction, mtdbstat (found next to mtdbd, or passed as
# the second argument) must report non-zero commit counters and no served
# kBegin from the daemon, and 200 more mtdbstat connections must grow its
# VmSize by at most 128 MB.
#
# usage: tools/mtdbd_smoke.sh path/to/mtdbd [path/to/mtdbstat]
set -euo pipefail

MTDBD="${1:?usage: mtdbd_smoke.sh path/to/mtdbd [path/to/mtdbstat]}"
MTDBSTAT="${2:-$(dirname "$MTDBD")/mtdbstat}"
LOG="$(mktemp)"
trap 'kill "${SERVER_PID:-}" 2>/dev/null || true; rm -f "$LOG"' EXIT

"$MTDBD" --port 0 > "$LOG" &
SERVER_PID=$!

# Wait for the daemon to print the kernel-assigned port.
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^mtdbd listening on port \([0-9]*\)$/\1/p' "$LOG")"
  [ -n "$PORT" ] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "mtdbd died during startup:" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "mtdbd never reported its port" >&2
  cat "$LOG" >&2
  exit 1
fi
echo "mtdbd up on port $PORT (pid $SERVER_PID)"

"$MTDBD" --client "127.0.0.1:$PORT"

# The smoke transaction must have left visible marks in the daemon's
# metrics registry: at least one committed engine transaction.
if [ -x "$MTDBSTAT" ]; then
  STATS="$("$MTDBSTAT" "127.0.0.1:$PORT")"
  COMMITS="$(printf '%s\n' "$STATS" \
    | sed -n 's/^mtdb_txn_commit_total{[^}]*} \([0-9]*\)$/\1/p' \
    | head -n 1)"
  if [ -z "$COMMITS" ] || [ "$COMMITS" -eq 0 ]; then
    echo "mtdbstat: no committed transactions in stats dump:" >&2
    printf '%s\n' "$STATS" >&2
    exit 1
  fi
  echo "mtdbstat reports $COMMITS committed transaction(s)"

  # Each smoke transaction's first request to the daemon is a read, and a
  # read carries its transaction's begin: the daemon must have served no
  # kBegin at all (the server-side histogram's count stays 0).
  BEGINS="$(printf '%s\n' "$STATS" \
    | sed -n 's/^mtdb_rpc_server_us{operation="Begin"} count=\([0-9]*\) .*$/\1/p' \
    | head -n 1)"
  if [ -z "$BEGINS" ] || [ "$BEGINS" -ne 0 ]; then
    echo "mtdbstat: daemon served ${BEGINS:-an unknown number of} kBegin" \
      "request(s); the first read should carry the begin:" >&2
    printf '%s\n' "$STATS" | grep '^mtdb_rpc_server_us' >&2 || true
    exit 1
  fi
  echo "mtdbstat reports 0 kBegin requests served: reads carried the begin"

  # The smoke client's read-only transaction must have gone through the
  # MVCC snapshot-read path, not the lock manager (--grep also exercises
  # the prefix filter).
  MVCC_STATS="$("$MTDBSTAT" --grep mtdb_mvcc_ "127.0.0.1:$PORT")"
  SNAPSHOT_READS="$(printf '%s\n' "$MVCC_STATS" \
    | sed -n 's/^mtdb_mvcc_snapshot_reads_total{[^}]*} \([0-9]*\)$/\1/p' \
    | head -n 1)"
  if [ -z "$SNAPSHOT_READS" ] || [ "$SNAPSHOT_READS" -eq 0 ]; then
    echo "mtdbstat: no MVCC snapshot reads in stats dump:" >&2
    printf '%s\n' "$MVCC_STATS" >&2
    exit 1
  fi
  echo "mtdbstat reports $SNAPSHOT_READS MVCC snapshot read(s)"

  # The daemon runs with the group-commit WAL enabled, so the committed
  # smoke transaction must have flowed through the durability pipeline:
  # appended records and at least one device sync.
  WAL_STATS="$("$MTDBSTAT" --grep mtdb_wal_ "127.0.0.1:$PORT")"
  WAL_APPENDS="$(printf '%s\n' "$WAL_STATS" \
    | sed -n 's/^mtdb_wal_appends_total{[^}]*} \([0-9]*\)$/\1/p' \
    | head -n 1)"
  WAL_SYNCS="$(printf '%s\n' "$WAL_STATS" \
    | sed -n 's/^mtdb_wal_syncs_total{[^}]*} \([0-9]*\)$/\1/p' \
    | head -n 1)"
  if [ -z "$WAL_APPENDS" ] || [ "$WAL_APPENDS" -eq 0 ] \
     || [ -z "$WAL_SYNCS" ] || [ "$WAL_SYNCS" -eq 0 ]; then
    echo "mtdbstat: WAL pipeline left no marks in stats dump:" >&2
    printf '%s\n' "$WAL_STATS" >&2
    exit 1
  fi
  echo "mtdbstat reports $WAL_APPENDS WAL append(s), $WAL_SYNCS sync(s)"

  # The migration metric series must be registered (and exposed through the
  # --watch shorthand) even on a daemon that has never migrated anything:
  # an operator watching migrations needs zeros, not silence.
  MIG_STATS="$("$MTDBSTAT" --watch migrations "127.0.0.1:$PORT")"
  MIG_STARTED="$(printf '%s\n' "$MIG_STATS" \
    | sed -n 's/^mtdb_rebalance_migrations_started_total \([0-9]*\)$/\1/p' \
    | head -n 1)"
  if [ -z "$MIG_STARTED" ]; then
    echo "mtdbstat --watch migrations: no migration series in stats dump:" >&2
    printf '%s\n' "$MIG_STATS" >&2
    exit 1
  fi
  if ! printf '%s\n' "$MIG_STATS" | grep -q '^mtdb_rebalance_cutover_pause_us '; then
    echo "mtdbstat --watch migrations: no cutover pause histogram:" >&2
    printf '%s\n' "$MIG_STATS" >&2
    exit 1
  fi
  echo "mtdbstat --watch migrations reports $MIG_STARTED migration(s) started"

  # Interval mode must parse its flags and emit exactly one delta window.
  INTERVAL_OUT="$("$MTDBSTAT" --interval 0.2 --count 1 "127.0.0.1:$PORT")"
  if ! printf '%s\n' "$INTERVAL_OUT" | grep -q '^--- window 1 '; then
    echo "mtdbstat --interval produced no delta window:" >&2
    printf '%s\n' "$INTERVAL_OUT" >&2
    exit 1
  fi
  echo "mtdbstat --interval mode ok"

  # Connection-per-request clients must not grow the daemon: every mtdbstat
  # call opens and closes one TCP connection, and the server must reap the
  # finished connection's thread (an unjoined thread keeps its stack mapped).
  vmsize_kb() {
    sed -n 's/^VmSize:[[:space:]]*\([0-9]*\) kB$/\1/p' "/proc/$SERVER_PID/status"
  }
  VMSIZE_BEFORE="$(vmsize_kb)"
  for _ in $(seq 1 200); do
    "$MTDBSTAT" "127.0.0.1:$PORT" > /dev/null
  done
  VMSIZE_AFTER="$(vmsize_kb)"
  GROWTH_KB=$((VMSIZE_AFTER - VMSIZE_BEFORE))
  echo "mtdbd VmSize grew by $GROWTH_KB kB over 200 mtdbstat connections"
  if [ "$GROWTH_KB" -gt $((128 * 1024)) ]; then
    echo "mtdbd VmSize grew by more than 128 MB: closed connections leak" >&2
    exit 1
  fi
else
  echo "mtdbstat binary not found at $MTDBSTAT" >&2
  exit 1
fi

# Clean shutdown: SIGTERM, wait, check the daemon exited 0.
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
STATUS=$?
SERVER_PID=""
if [ "$STATUS" -ne 0 ]; then
  echo "mtdbd exited with status $STATUS" >&2
  exit "$STATUS"
fi
grep -q "mtdbd stopped" "$LOG"
echo "smoke test passed"
