#!/usr/bin/env bash
# Metrics smoke test: start `mope serve --metrics-dump`, drive traffic at it
# with the stats subcommand and the client-driving CLI paths, then assert
# the scraped exposition parses and carries the expected metric families.
#
# Exercised end to end:
#   serve --metrics-dump PATH   periodic atomic Prometheus dump
#   mope stats                  Get_stats over the wire (text + traces)
#   mope stats --json           JSON rendering
#   load/save/sql --wal/serve --metrics-dump on unusable paths: one line
#                               naming the path and exit 1, serve before
#                               it listens
#
# Usage: scripts/metrics_smoke.sh [PORT]
set -euo pipefail

PORT="${1:-7391}"
WORKDIR="$(mktemp -d)"
DUMP="$WORKDIR/metrics.prom"
SERVE_LOG="$WORKDIR/serve.log"
MOPE="dune exec --no-build bin/mope_cli.exe --"

cleanup() {
  if [[ -n "${SERVER_PID:-}" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "--- serve log ---" >&2
  cat "$SERVE_LOG" >&2 || true
  echo "--- dump ---" >&2
  cat "$DUMP" >&2 || true
  exit 1
}

dune build bin/mope_cli.exe

# A path the CLI cannot open is reported in one line naming it, with exit
# status 1 (an uncaught exception would exit 125). serve writes its first
# metrics dump before it listens, so a bad dump path stops it at startup.
expect_path_error() {
  local path="$1" out status=0
  shift
  out="$("$@" 2>&1 </dev/null)" || status=$?
  [[ "$status" -eq 1 ]] || fail "'$*' exited $status, want 1: $out"
  grep -qF "$path" <<<"$out" || fail "'$*' did not name $path: $out"
  if grep -q "listening" <<<"$out"; then fail "'$*' listened first: $out"; fi
}
NO_DIR="$WORKDIR/no-such-dir"
expect_path_error "$WORKDIR/nonexistent.db" $MOPE load "$WORKDIR/nonexistent.db"
expect_path_error "$NO_DIR/x.db" $MOPE save --sf 0.0005 "$NO_DIR/x.db"
expect_path_error "$NO_DIR/x.wal" $MOPE sql --wal "$NO_DIR/x.wal"
expect_path_error "$NO_DIR/m.prom" \
  $MOPE serve --port "$PORT" --sf 0.002 --metrics-dump "$NO_DIR/m.prom"
echo "bad paths OK: load, save, sql --wal and serve --metrics-dump exit 1"

echo "starting mope serve on port $PORT (metrics dump: $DUMP)"
$MOPE serve --port "$PORT" --sf 0.002 --metrics-dump "$DUMP" \
  >"$SERVE_LOG" 2>&1 &
SERVER_PID=$!

# Wait for the listener (the SF 0.002 testbed takes a moment to generate).
for _ in $(seq 1 120); do
  if grep -q "listening" "$SERVE_LOG" 2>/dev/null; then break; fi
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server died during startup"
  sleep 0.5
done
grep -q "listening" "$SERVE_LOG" || fail "server never started listening"

# Drive traffic: the stats op itself counts as requests, and each scrape is
# a full client connect/query/close cycle over wire v3.
for _ in 1 2 3; do
  $MOPE stats --port "$PORT" >/dev/null
done
STATS_TEXT="$($MOPE stats --port "$PORT")"
STATS_JSON="$($MOPE stats --port "$PORT" --json)"

# The periodic dump is written about once a second (and once before the
# listener opens, with nothing counted); wait for one that already
# reflects the traffic above.
for _ in $(seq 1 20); do
  REQS=$(grep '^mope_server_requests_total' "$DUMP" 2>/dev/null \
    | awk '{print int($2)}')
  [[ "${REQS:-0}" -ge 5 ]] && break
  sleep 0.5
done
[[ -s "$DUMP" ]] || fail "metrics dump was never written"

check_family() {
  local where="$1" text="$2" family="$3"
  grep -q "^# TYPE $family" <<<"$text" || fail "$where: missing family $family"
}

for family in \
  mope_server_requests_total \
  mope_server_connections_total \
  mope_server_in_flight \
  mope_server_request_seconds \
  mope_exec_queries_total \
  mope_ope_encrypt_total \
  mope_proxy_queries_total \
  mope_wal_fsync_total \
  mope_client_retries_total; do
  check_family "dump" "$(cat "$DUMP")" "$family"
  check_family "stats op" "$STATS_TEXT" "$family"
done

# Text exposition parses: every non-comment line is "name{labels}? value".
BAD_LINES=$(grep -v '^#' "$DUMP" | grep -v '^$' \
  | grep -cvE '^[a-z_][a-z0-9_]*(\{[^}]*\})? -?[0-9.e+-]+(inf)?$' || true)
[[ "$BAD_LINES" -eq 0 ]] || fail "dump has $BAD_LINES unparseable lines"

# The server actually counted the scrapes.
REQS=$(grep '^mope_server_requests_total' "$DUMP" | awk '{print $2}')
[[ "${REQS%.*}" -ge 5 ]] || fail "expected >= 5 requests counted, got $REQS"

# JSON rendering is present and shaped.
grep -q '"counters"' <<<"$STATS_JSON" || fail "stats --json missing counters"
grep -q '"histograms"' <<<"$STATS_JSON" || fail "stats --json missing histograms"

# Graceful shutdown writes a final dump.
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
grep -q "mope_server_requests_total" "$DUMP" || fail "final dump missing"

echo "metrics smoke OK: $(grep -c '^# TYPE' "$DUMP") families exposed, $REQS requests counted"
