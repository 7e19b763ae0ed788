#!/usr/bin/env bash
# restart_smoke.sh — end-to-end restart-recovery smoke test for the
# snapshot disk tier, against the real binary:
#
#   1. boot seuss-node with -snapdir, invoke a function (cold, then hot)
#   2. SIGTERM: the graceful drain must flush the function snapshot
#      stacks to the tier directory
#   3. boot a second seuss-node over the same -snapdir: boot-time
#      prewarm must restore the lineages
#   4. the first re-invocation must be served from RAM (warm/hot, never
#      cold), and /metrics must show the prewarm promotions and a
#      lukewarm latency family
#   5. a third boot records a working-set sidecar and is stopped with
#      SIGKILL, no drain: a fourth boot must still restore lukewarm with
#      prefetched pages, so a kill -9 loses nothing already on disk
#
# This is the CI proof that "restart without losing your warm starts"
# survives the full stack — flags, store recovery, pool prewarm — not
# just the unit tests.
set -euo pipefail

cd "$(dirname "$0")/.."
PORT="${SEUSS_SMOKE_PORT:-18573}"
ADDR="127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
SNAPDIR="$TMP/snaps"
NODE_PID=""
cleanup() {
  [ -n "$NODE_PID" ] && kill "$NODE_PID" 2>/dev/null || true
  [ -n "$NODE_PID" ] && wait "$NODE_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

wait_healthy() {
  for i in $(seq 1 50); do
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then return 0; fi
    if ! kill -0 "$NODE_PID" 2>/dev/null; then
      echo "FAIL: seuss-node exited during boot:" >&2
      cat "$1" >&2
      exit 1
    fi
    sleep 0.2
  done
  echo "FAIL: seuss-node never became healthy" >&2
  cat "$1" >&2
  exit 1
}

echo "== building seuss-node" >&2
go build -o "$TMP/seuss-node" ./cmd/seuss-node

# invoke POSTs $BODY once, records the response's request_id (restore-
# time uniqueness: ids must never repeat, even across process restarts
# sharing one -snapdir), and prints the serving path.
IDS="$TMP/request_ids.txt"
invoke() {
  local resp
  resp="$(curl -sf -X POST "http://$ADDR/invoke" -d "$BODY")"
  printf '%s\n' "$resp" | sed -n 's/.*"request_id":\([0-9][0-9]*\).*/\1/p' >>"$IDS"
  printf '%s\n' "$resp" | sed -n 's/.*"path":"\([a-z]*\)".*/\1/p'
}

echo "== first boot with -snapdir $SNAPDIR" >&2
"$TMP/seuss-node" -addr "$ADDR" -shards 2 -snapdir "$SNAPDIR" >"$TMP/node1.log" 2>&1 &
NODE_PID=$!
wait_healthy "$TMP/node1.log"

BODY='{"key":"smoke/fn","source":"function main(a) { return {ok: true}; }"}'
PATH1="$(invoke)"
if [ "$PATH1" != "cold" ]; then
  echo "FAIL: first-ever invocation path is '$PATH1', want cold" >&2
  exit 1
fi
invoke >/dev/null

echo "== SIGTERM: graceful drain must flush the tier" >&2
kill -TERM "$NODE_PID"
wait "$NODE_PID" 2>/dev/null || true
NODE_PID=""
if ! grep -q "flushed .* function snapshots" "$TMP/node1.log"; then
  echo "FAIL: drain log never reported a snapshot flush:" >&2
  cat "$TMP/node1.log" >&2
  exit 1
fi
if ! ls "$SNAPDIR"/*.snap >/dev/null 2>&1 || [ ! -f "$SNAPDIR/manifest.json" ]; then
  echo "FAIL: tier directory is missing entries after drain:" >&2
  ls -la "$SNAPDIR" >&2 || true
  exit 1
fi
if [ -s "$SNAPDIR/manifest.log" ]; then
  echo "FAIL: drain left manifest.log uncompacted:" >&2
  cat "$SNAPDIR/manifest.log" >&2
  exit 1
fi

echo "== second boot over the same -snapdir" >&2
"$TMP/seuss-node" -addr "$ADDR" -shards 2 -snapdir "$SNAPDIR" >"$TMP/node2.log" 2>&1 &
NODE_PID=$!
wait_healthy "$TMP/node2.log"
if ! grep -q "prewarmed .* function snapshot stacks" "$TMP/node2.log"; then
  echo "FAIL: second boot never prewarmed:" >&2
  cat "$TMP/node2.log" >&2
  exit 1
fi

PATH2="$(invoke)"
case "$PATH2" in
  warm|hot) ;;
  *)
    echo "FAIL: first post-restart invocation path is '$PATH2', want warm or hot" >&2
    cat "$TMP/node2.log" >&2
    exit 1
    ;;
esac

curl -sf "http://$ADDR/metrics" >"$TMP/metrics.txt"
require() {
  if ! grep -q "$1" "$TMP/metrics.txt"; then
    echo "FAIL: /metrics is missing: $1" >&2
    exit 1
  fi
}
require '^seuss_snapshot_tier_promotions_total{kind="prewarm"} [1-9]'
require '^seuss_snapshot_tier_lookups_total{result="hit"} [1-9]'
require '^seuss_invocations_total{path="lukewarm"} '
require '^seuss_invocation_latency_seconds_count{path="lukewarm"} '

STATS="$(curl -sf "http://$ADDR/stats")"
case "$STATS" in
  *'"snapshot_tier"'*) ;;
  *)
    echo "FAIL: /stats has no snapshot_tier section: $STATS" >&2
    exit 1
    ;;
esac

echo "== SIGTERM again: drain before the working-set boots" >&2
kill -TERM "$NODE_PID"
wait "$NODE_PID" 2>/dev/null || true
NODE_PID=""

echo "== third boot with -no-prewarm: lukewarm restore records the working set" >&2
"$TMP/seuss-node" -addr "$ADDR" -shards 2 -snapdir "$SNAPDIR" -no-prewarm >"$TMP/node3.log" 2>&1 &
NODE_PID=$!
wait_healthy "$TMP/node3.log"
PATH3="$(invoke)"
if [ "$PATH3" != "lukewarm" ]; then
  echo "FAIL: first no-prewarm invocation path is '$PATH3', want lukewarm" >&2
  cat "$TMP/node3.log" >&2
  exit 1
fi
curl -sf "http://$ADDR/metrics" >"$TMP/metrics.txt"
require '^seuss_ws_records_total{outcome="recorded"} [1-9]'
if ! ls "$SNAPDIR"/*.ws >/dev/null 2>&1; then
  echo "FAIL: lukewarm restore left no working-set sidecar in the tier:" >&2
  ls -la "$SNAPDIR" >&2 || true
  exit 1
fi
echo "== SIGKILL: no drain; what is on disk already must survive" >&2
kill -KILL "$NODE_PID"
wait "$NODE_PID" 2>/dev/null || true
NODE_PID=""

echo "== fourth boot with -no-prewarm: the record survives kill -9 and prefetches" >&2
"$TMP/seuss-node" -addr "$ADDR" -shards 2 -snapdir "$SNAPDIR" -no-prewarm >"$TMP/node4.log" 2>&1 &
NODE_PID=$!
wait_healthy "$TMP/node4.log"
PATH4="$(invoke)"
if [ "$PATH4" != "lukewarm" ]; then
  echo "FAIL: first post-restart invocation path is '$PATH4', want lukewarm" >&2
  cat "$TMP/node4.log" >&2
  exit 1
fi
curl -sf "http://$ADDR/metrics" >"$TMP/metrics.txt"
require '^seuss_ws_prefetched_pages_total [1-9]'
require '^seuss_ws_coverage_pages_total{result="hit"} [1-9]'

echo "== request-id uniqueness across all four boots" >&2
IDCOUNT="$(wc -l < "$IDS")"
if [ "$IDCOUNT" -lt 5 ]; then
  echo "FAIL: captured only $IDCOUNT request ids, want 5" >&2
  cat "$IDS" >&2
  exit 1
fi
DUPES="$(sort -n "$IDS" | uniq -d)"
if [ -n "$DUPES" ]; then
  echo "FAIL: request ids reused across process restarts:" >&2
  echo "$DUPES" >&2
  exit 1
fi

echo "OK: restart recovered warm starts from the snapshot tier" >&2
