#!/usr/bin/env bash
# prodcov.sh — list the functions that production traffic never runs.
#
# Builds seuss-node, seuss-experiments and the six examples with
# coverage instrumentation over every package of the module
# (go build -cover -coverpkg=seuss/...), drives them with the traffic
# below, merges the counters with go tool covdata, and prints every
# function at 0.0 % followed by the total statement coverage:
#
#   - seuss-experiments -run all -quick, -run trial, -run burst -quick
#   - every program under examples/
#   - a scripted seuss-node session: cold and hot invocations, one of
#     a function that reads the clock, logs and sleeps (the host
#     services a guest reaches through the hypercall table), a SIGTERM
#     drain over -snapdir, a restart that restores from it, and a boot
#     under -fault-rate 0.05 (injected faults, retried warm)
#
# Tests are not traffic: a function only a test reaches is listed.
# Needs go, curl and bash; takes under a minute once the build is cached.
set -euo pipefail

cd "$(dirname "$0")/.."
ADDR="127.0.0.1:18574"
TMP="$(mktemp -d)"
NODE_PID=""
cleanup() {
  [ -n "$NODE_PID" ] && kill "$NODE_PID" 2>/dev/null || true
  [ -n "$NODE_PID" ] && wait "$NODE_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT
mkdir -p "$TMP/bin" "$TMP/cov"
export GOCOVERDIR="$TMP/cov"

echo "== building instrumented binaries" >&2
build() { go build -cover -coverpkg=seuss/... -o "$TMP/bin/$1" "$2"; }
build seuss-node ./cmd/seuss-node
build seuss-experiments ./cmd/seuss-experiments
for d in examples/*/; do
  build "example-$(basename "$d")" "./$d"
done

echo "== seuss-experiments" >&2
"$TMP/bin/seuss-experiments" -run all -quick >/dev/null
"$TMP/bin/seuss-experiments" -run trial >/dev/null
"$TMP/bin/seuss-experiments" -run burst -quick >/dev/null

echo "== examples" >&2
for d in examples/*/; do
  "$TMP/bin/example-$(basename "$d")" >/dev/null
done

# boot starts seuss-node with the given flags and waits for /healthz.
boot() {
  "$TMP/bin/seuss-node" -addr "$ADDR" -shards 2 "$@" >"$TMP/node.log" 2>&1 &
  NODE_PID=$!
  for _ in $(seq 1 50); do
    curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "prodcov: seuss-node never became healthy:" >&2
  cat "$TMP/node.log" >&2
  exit 1
}

# drain stops seuss-node with SIGTERM: a clean exit is what writes its
# coverage counters (and, with -snapdir, flushes the tier).
drain() {
  kill -TERM "$NODE_PID"
  wait "$NODE_PID"
  NODE_PID=""
}

COUNTER='function main(a) { return {n: a.n + 1}; }'
SERVICES='function main(a) { console.log(\"x\"); sleep(1); return {t: Date.now()}; }'

# invoke sends n requests for function $1, whose source is $3 (default
# COUNTER, JSON-escaped); failures are part of the traffic under
# -fault-rate, so their status is not checked.
invoke() {
  local body="{\"key\":\"prodcov/$1\",\"source\":\"${3:-$COUNTER}\",\"args\":{\"n\":1}}"
  for _ in $(seq 1 "$2"); do
    curl -s -X POST "http://$ADDR/invoke" -d "$body" >/dev/null || true
  done
}

echo "== seuss-node: cold, hot, drain over -snapdir" >&2
boot -snapdir "$TMP/snaps"
for f in a b c d; do invoke "$f" 3; done
invoke services 2 "$SERVICES"
curl -s "http://$ADDR/stats" >/dev/null
curl -s "http://$ADDR/metrics" >/dev/null
drain

echo "== seuss-node: restart over -snapdir" >&2
boot -snapdir "$TMP/snaps"
for f in a b c d e; do invoke "$f" 2; done
drain

echo "== seuss-node: -fault-rate 0.05" >&2
boot -fault-rate 0.05 -fault-seed 1
for f in a b c d e f g h; do invoke "$f" 8; done
drain

go tool covdata func -i "$TMP/cov" | awk '$NF == "0.0%" || $1 == "total"'
