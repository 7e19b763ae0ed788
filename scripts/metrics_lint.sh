#!/usr/bin/env bash
# metrics_lint.sh — boot a real seuss-node, drive a couple of
# invocations through it, scrape GET /metrics, and lint the exposition:
#
#   * every sample line parses as  name[{labels}] value
#   * every sample belongs to a family announced by a # TYPE line
#   * no family announces # TYPE twice (same-family series must be
#     written adjacently)
#   * every value parses as a float
#   * histogram families emit _bucket (with an le label and an +Inf
#     bound), _sum, and _count series
#   * the families the README promises are actually present, and the
#     invocations we sent show up in them
#
# This is the CI companion to the byte-exact golden test in
# internal/metrics: the golden test pins the renderer, this pins the
# wired-up binary end to end.
set -euo pipefail

cd "$(dirname "$0")/.."
PORT="${SEUSS_LINT_PORT:-18473}"
ADDR="127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
NODE_PID=""
cleanup() {
  [ -n "$NODE_PID" ] && kill "$NODE_PID" 2>/dev/null || true
  [ -n "$NODE_PID" ] && wait "$NODE_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

echo "== building seuss-node" >&2
go build -o "$TMP/seuss-node" ./cmd/seuss-node

echo "== booting on $ADDR" >&2
# -policy fixed with a tick period far longer than the lint: the
# keepalive histogram gets real observations from the invocations
# below, but no reaper tick fires, so the expiration/prewarm counters
# stay deterministically zero.
"$TMP/seuss-node" -addr "$ADDR" -shards 2 -policy fixed -keepalive 10m -policy-tick 1h >"$TMP/node.log" 2>&1 &
NODE_PID=$!

for i in $(seq 1 50); do
  if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$NODE_PID" 2>/dev/null; then
    echo "FAIL: seuss-node exited during boot:" >&2
    cat "$TMP/node.log" >&2
    exit 1
  fi
  sleep 0.2
  if [ "$i" -eq 50 ]; then
    echo "FAIL: seuss-node never became healthy" >&2
    cat "$TMP/node.log" >&2
    exit 1
  fi
done

# Two invocations of one key: first is a cold start, second is a hot
# start from the cached idle UC — so both ends of the path taxonomy
# have non-zero counters in the scrape.
BODY='{"key":"lint/fn","source":"function main(a) { return {ok: true}; }"}'
for i in 1 2; do
  curl -sf -X POST "http://$ADDR/invoke" -d "$BODY" >/dev/null
done

curl -sf "http://$ADDR/metrics" >"$TMP/metrics.txt"
CT="$(curl -sf -o /dev/null -w '%{content_type}' "http://$ADDR/metrics")"
case "$CT" in
  *text/plain*) ;;
  *) echo "FAIL: /metrics Content-Type is not text/plain: $CT" >&2; exit 1 ;;
esac

echo "== linting exposition ($(wc -l < "$TMP/metrics.txt") lines)" >&2
awk '
  /^# TYPE / {
    if (NF != 4) { printf "line %d: malformed TYPE line: %s\n", NR, $0; bad = 1; next }
    if ($3 in type) { printf "line %d: duplicate TYPE for family %s\n", NR, $3; bad = 1 }
    if ($4 != "counter" && $4 != "gauge" && $4 != "histogram" && $4 != "summary" && $4 != "untyped") {
      printf "line %d: unknown metric type %s\n", NR, $4; bad = 1
    }
    type[$3] = $4
    next
  }
  /^#/ { next }     # HELP and comments
  /^$/ { next }
  {
    # name{labels} value  |  name value
    if (match($0, /^[a-zA-Z_:][a-zA-Z0-9_:]*/) == 0) {
      printf "line %d: sample does not start with a metric name: %s\n", NR, $0; bad = 1; next
    }
    name = substr($0, 1, RLENGTH)
    rest = substr($0, RLENGTH + 1)
    labels = ""
    if (substr(rest, 1, 1) == "{") {
      close_idx = index(rest, "}")
      if (close_idx == 0) { printf "line %d: unterminated label set: %s\n", NR, $0; bad = 1; next }
      labels = substr(rest, 1, close_idx)
      rest = substr(rest, close_idx + 1)
    }
    if (rest !~ /^ [^ ]+$/) {
      printf "line %d: expected single space then value: %s\n", NR, $0; bad = 1; next
    }
    value = substr(rest, 2)
    if (value !~ /^[-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|Inf|NaN)$/) {
      printf "line %d: unparseable value %s\n", NR, value; bad = 1
    }
    # Map histogram child series back to their family for TYPE coverage.
    family = name
    if (family in type) { } else {
      sub(/_(bucket|sum|count)$/, "", family)
    }
    if (!(family in type)) {
      printf "line %d: sample %s has no TYPE declaration\n", NR, name; bad = 1; next
    }
    if (type[family] == "histogram") {
      if (name ~ /_bucket$/) {
        if (labels !~ /le="/) { printf "line %d: histogram bucket without le label: %s\n", NR, $0; bad = 1 }
        if (labels ~ /le="\+Inf"/) inf_seen[family] = 1
        seen_bucket[family] = 1
      } else if (name ~ /_sum$/) { seen_sum[family] = 1 }
      else if (name ~ /_count$/) { seen_count[family] = 1 }
      else { printf "line %d: histogram family %s has non-histogram sample %s\n", NR, family, name; bad = 1 }
    }
  }
  END {
    for (f in type) {
      if (type[f] != "histogram") continue
      if (!(f in seen_bucket)) { printf "histogram %s: no _bucket series\n", f; bad = 1 }
      if (!(f in inf_seen))    { printf "histogram %s: no le=\"+Inf\" bucket\n", f; bad = 1 }
      if (!(f in seen_sum))    { printf "histogram %s: no _sum\n", f; bad = 1 }
      if (!(f in seen_count))  { printf "histogram %s: no _count\n", f; bad = 1 }
    }
    exit bad
  }
' "$TMP/metrics.txt"

# The families the README and DESIGN.md §9 promise, with the values the
# two invocations above must have produced.
require() {
  if ! grep -q "$1" "$TMP/metrics.txt"; then
    echo "FAIL: /metrics is missing: $1" >&2
    exit 1
  fi
}
require '^seuss_invocations_total{path="cold"} 1$'
require '^seuss_invocations_total{path="hot"} 1$'
require '^seuss_invocation_latency_seconds_bucket{path="cold",le="+Inf"} 1$'
require '^seuss_invocation_latency_seconds_count{path="cold"} 1$'
require '^seuss_snapshot_stack_lookups_total{result='
require '^seuss_snapshot_tier_lookups_total{result='
require '^seuss_snapshot_tier_promotions_total{kind='
require '^seuss_invocations_total{path="lukewarm"} 0$'
require '^seuss_deploy_kit_lookups_total{result='
require '^seuss_ucs_deployed_total '
require '^seuss_trace_dropped_total 0$'
# Admission control (DESIGN.md §7): two sequential requests never find a
# shard queue full, so nothing is shed.
require '^seuss_requests_overloaded_total 0$'
# Scheduler and snapshot-fabric families (DESIGN.md §11). seuss-node
# runs a single pool, not a cluster, so these counters are zero here —
# the lint pins that the families are registered and rendered.
require '^seuss_sched_placements_total{action="cold"} 0$'
require '^seuss_sched_placements_total{action="route"} 0$'
require '^seuss_sched_placements_total{action="fetch"} 0$'
require '^seuss_sched_stale_entries_total 0$'
require '^seuss_fabric_gossip_rounds_total 0$'
require '^seuss_fabric_gossip_drops_total 0$'
require '^seuss_fabric_layer_transfers_total{outcome="fetched"} 0$'
require '^seuss_fabric_layer_transfers_total{outcome="deduped"} 0$'
require '^seuss_fabric_layer_transfers_total{outcome="rejected"} 0$'
# Member-lifecycle families (DESIGN.md §12) — zero for the same reason.
require '^seuss_cluster_member_state_transitions_total{state="alive"} 0$'
require '^seuss_cluster_member_state_transitions_total{state="suspect"} 0$'
require '^seuss_cluster_member_state_transitions_total{state="dead"} 0$'
require '^seuss_cluster_failovers_total 0$'
require '^seuss_fabric_repairs_total{outcome="promoted"} 0$'
require '^seuss_fabric_repairs_total{outcome="refetched"} 0$'
require '^seuss_fabric_repairs_total{outcome="cold"} 0$'
require '^seuss_fabric_repairs_total{outcome="failed"} 0$'
# Working-set record/replay families (DESIGN.md §13) — the lint boots
# without -snapdir, so no lukewarm restore ever runs and the counters
# stay zero; the requirement is that the families render.
require '^seuss_ws_records_total{outcome="recorded"} 0$'
require '^seuss_ws_records_total{outcome="merged"} 0$'
require '^seuss_ws_records_total{outcome="corrupt"} 0$'
require '^seuss_ws_prefetched_pages_total 0$'
require '^seuss_ws_coverage_pages_total{result="hit"} 0$'
require '^seuss_ws_coverage_pages_total{result="miss"} 0$'
# Restore-time uniqueness (DESIGN.md §14): one boot reseed per template
# runtime boot, one cold reseed for the cold invocation above; the hot
# invocation deploys nothing, so the remaining paths stay zero.
require '^seuss_uc_reseeds_total{path="boot"} [1-9]'
require '^seuss_uc_reseeds_total{path="cold"} 1$'
require '^seuss_uc_reseeds_total{path="warm"} 0$'
require '^seuss_uc_reseeds_total{path="lukewarm"} 0$'
require '^seuss_uc_reseeds_total{path="kit"} 0$'
# Lifecycle-policy families (DESIGN.md §15): the boot above arms
# -policy fixed -keepalive 10m, so both invocations observe a 600 s
# window; the reaper period outlives the lint, so nothing expires or
# prewarms.
require '^seuss_policy_expirations_total 0$'
require '^seuss_policy_prewarms_total{outcome="promoted"} 0$'
require '^seuss_policy_prewarms_total{outcome="miss"} 0$'
require '^seuss_policy_prewarms_total{outcome="misfire"} 0$'
require '^seuss_policy_keepalive_seconds_bucket{le="600"} 2$'
require '^seuss_policy_keepalive_seconds_count 2$'

echo "OK: /metrics exposition is well-formed" >&2
