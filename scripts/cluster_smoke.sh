#!/usr/bin/env bash
# Cluster smoke test: bring up the loopback sharded topology end to end
# and assert the scatter-gather path holds its core guarantees.
#
# Exercised:
#   mope cluster --shards 3 --replicas 1      3x1 loopback fleet over wire v5,
#                                             every answer checked against the
#                                             plaintext baseline (the command
#                                             exits non-zero on any mismatch)
#   --kill-shard 1                            primary killed mid-run; reads
#                                             must fail over to its replica
#   --supervise --writes 30 --kill-shard 0    primary killed mid-write-storm
#     --chaos SEED (two seeds)                under seeded chaos; the
#                                             supervisor must auto-promote a
#                                             replica and the exactly-once
#                                             audit must hold (no lost,
#                                             duplicated, or phantom writes)
#   mope cluster --shards 1 --replicas 0      single-node degenerate case:
#                                             same checks, no fan-out
#   dune build @lint                          static analysis stays green
#
# The K in {1,2,4} cluster benchmark runs in `dune build @bench/macro-smoke`.
#
# Usage: scripts/cluster_smoke.sh
set -euo pipefail

WORKDIR="$(mktemp -d)"
LOG="$WORKDIR/cluster.log"

cleanup() { rm -rf "$WORKDIR"; }
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "--- log ---" >&2
  cat "$LOG" >&2 || true
  exit 1
}

dune build bin/mope_cli.exe

echo "running mope cluster --shards 3 --replicas 1 --kill-shard 1"
dune exec --no-build bin/mope_cli.exe -- cluster --shards 3 --replicas 1 \
  --sf 0.002 --queries 6 --kill-shard 1 >"$LOG" 2>&1 \
  || fail "3x1 cluster run failed (a query diverged or a failover broke)"

# Every query matched the plaintext baseline...
MATCHES=$(grep -c "ok (matches plaintext)" "$LOG" || true)
[[ "$MATCHES" -eq 6 ]] || fail "expected 6 matching queries, got $MATCHES"
# ...the primary really was killed mid-run...
grep -q "killing shard 1's primary" "$LOG" || fail "kill never happened"
# ...and the replica actually served reads afterwards.
grep -E "reads served by replicas after failover: [1-9]" "$LOG" >/dev/null \
  || fail "no failover reads recorded after the primary was killed"

for SEED in 11 42; do
  echo "running mope cluster --supervise --writes 30 --kill-shard 0 --chaos $SEED"
  dune exec --no-build bin/mope_cli.exe -- cluster --shards 2 --replicas 1 \
    --sf 0.002 --queries 2 --kill-shard 0 --supervise --writes 30 \
    --chaos "$SEED" >"$LOG" 2>&1 \
    || fail "supervised failover run failed under chaos seed $SEED"
  # The primary really was killed mid-storm...
  grep -q "killing shard 0's primary" "$LOG" \
    || fail "seed $SEED: kill never happened"
  # ...the exactly-once audit held (no lost/duplicated/phantom writes)...
  grep -q "every acknowledged write present exactly once: yes" "$LOG" \
    || fail "seed $SEED: exactly-once write audit did not pass"
  # ...and the supervisor promoted a replica under a bumped fencing epoch.
  grep -E "shard 0: promotions [1-9][0-9]*, fencing epoch [2-9]" "$LOG" \
    >/dev/null || fail "seed $SEED: no promotion recorded for the killed shard"
done

echo "running mope cluster --shards 1 --replicas 0 (single-node equality)"
dune exec --no-build bin/mope_cli.exe -- cluster --shards 1 --replicas 0 \
  --sf 0.002 --queries 3 >"$LOG" 2>&1 || fail "single-node cluster run failed"
MATCHES=$(grep -c "ok (matches plaintext)" "$LOG" || true)
[[ "$MATCHES" -eq 3 ]] || fail "expected 3 matching queries, got $MATCHES"

echo "running dune build @lint"
dune build @lint >"$LOG" 2>&1 || fail "mope-lint found problems"

echo "cluster smoke OK: 3x1 failover served, supervised promotion exactly-once under two chaos seeds, results byte-identical, lint green"
