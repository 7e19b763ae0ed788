#!/usr/bin/env bash
# bench.sh — run the hot-path benchmarks and compare them to the
# committed baseline (BENCH_hotpath.json).
#
#   scripts/bench.sh record   re-run the benchmarks and rewrite the
#                             baseline's "benchmarks" table
#   scripts/bench.sh gate     re-run the benchmarks and FAIL if any
#                             benchmark regressed >30% in ns/op, if a
#                             zero-alloc benchmark allocates at all, if
#                             a non-zero-alloc benchmark grew >30% in
#                             allocs/op, or if a "ratios" contract is
#                             broken
#
# Every benchmark runs five times and the gate compares the MEDIAN ns/op
# (and the worst allocs/op) of the five: one sample of a microsecond-
# scale benchmark on a shared runner swings by more than the 30% margin
# on its own, the median of five does not. The absolute ns/op table
# still depends on the runner class; the "ratios" table does not — each
# entry pins one benchmark to a maximum multiple of another measured in
# the same round, and the gate takes the median of the five per-round
# ratios, so the contract survives machine drift that moves both.
#
# The gate covers the wall-clock hot path: deploy, snapshot capture,
# page-fault resolution, and end-to-end sharded throughput (the
# shards=1 sub-benchmark, so shard-count changes don't move the
# goalposts). Keeping it in CI is what makes "allocation-free" a
# property instead of a one-time measurement. The snapshot-tier pair
# (lukewarm restore vs the cold rebuild it replaces) rides along so a
# regression cannot silently erase the lukewarm win. Two ratio
# contracts: the prefetched lukewarm restore must stay within a fixed
# multiple of the warm deploy, and so must a hot invocation through the
# pool — the deploy is the step a hot start exists to skip.
set -euo pipefail

cd "$(dirname "$0")/.."
MODE="${1:-gate}"
BASELINE="${2:-BENCH_hotpath.json}"
RAW="$(mktemp)"
BIN="$(mktemp -d)"
trap 'rm -rf "$RAW" "$BIN"' EXIT

# The test binaries are built once and run ROUNDS times, every benchmark
# once per round: a slow minute of the machine then covers one sample of
# each benchmark instead of all five of one, and the benchmarks a ratio
# contract compares are measured seconds apart.
ROUNDS=5
go test -c -o "$BIN/seuss.test" .
go test -c -o "$BIN/shardpool.test" ./internal/shardpool
echo "== running hot-path benchmarks, $ROUNDS rounds (this takes ~3 min)" >&2
for round in $(seq "$ROUNDS"); do
  "$BIN/seuss.test" -test.run '^$' -test.benchmem \
    -test.bench 'BenchmarkUCDeployRealTime$|BenchmarkSnapshotCaptureRealTime$|BenchmarkLukewarmPrefetched$|BenchmarkColdRebuildRealTime$' \
    | tee -a "$RAW" >&2
  # The page-fault benchmark stops its timer to unmap its window every
  # 512 faults, and each restart costs a stop-the-world memstats read:
  # a fixed iteration count keeps its wall time near a second where
  # the default one-second budget would take twenty.
  "$BIN/seuss.test" -test.run '^$' -test.benchmem -test.benchtime=4000000x \
    -test.bench 'BenchmarkPageFaultRealTime$' | tee -a "$RAW" >&2
  (cd internal/shardpool && "$BIN/shardpool.test" -test.run '^$' -test.benchmem \
    -test.bench 'BenchmarkShardedThroughput/shards=1$') | tee -a "$RAW" >&2
done

# Lifecycle-policy smoke (DESIGN.md §15): the reduced-scale trace run
# asserting Hybrid's warm-hit rate is at least FixedKeepAlive's while
# holding less resident RAM, and its p99 beats scale-to-zero. Not a
# timing gate — the inequalities are virtual-time properties, so this
# passes or fails identically on any machine.
echo "== running lifecycle-policy smoke (~10s)" >&2
go test -run 'TestPolicyTradeoffs$' -count=1 ./internal/experiments >&2

python3 - "$MODE" "$BASELINE" "$RAW" <<'PY'
import json, re, statistics, sys

mode, baseline_path, raw_path = sys.argv[1], sys.argv[2], sys.argv[3]

# "BenchmarkFoo/sub=1-8  1234  567 ns/op  [custom metrics]  8 B/op  9 allocs/op"
line = re.compile(
    r'^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op.*?([\d.]+) B/op\s+(\d+) allocs/op')
samples = {}
for l in open(raw_path):
    m = line.match(l)
    if m:
        ns, allocs = samples.setdefault(m.group(1), ([], []))
        ns.append(float(m.group(2)))
        allocs.append(int(m.group(4)))
current = {
    name: {
        "ns_per_op": statistics.median(ns),
        "allocs_per_op": max(allocs),
        "rounds": ns,
    }
    for name, (ns, allocs) in samples.items()
}

if not current:
    sys.exit("bench.sh: no benchmark results parsed — did the build fail?")

if mode == "record":
    try:
        doc = json.load(open(baseline_path))
    except FileNotFoundError:
        doc = {}
    doc["benchmarks"] = {
        name: {"ns_per_op": c["ns_per_op"], "allocs_per_op": c["allocs_per_op"]}
        for name, c in current.items()
    }
    with open(baseline_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(current)} benchmarks to {baseline_path}")
    sys.exit(0)

doc = json.load(open(baseline_path))
base = doc["benchmarks"]
failures = []
for name, b in sorted(base.items()):
    c = current.get(name)
    if c is None:
        failures.append(f"{name}: benchmark missing from current run")
        continue
    limit = b["ns_per_op"] * 1.30
    verdict = "ok"
    if c["ns_per_op"] > limit:
        failures.append(
            f"{name}: {c['ns_per_op']:.0f} ns/op exceeds 130% of "
            f"baseline {b['ns_per_op']:.0f} ns/op")
        verdict = "FAIL time"
    if b["allocs_per_op"] == 0:
        if c["allocs_per_op"] > 0:
            failures.append(
                f"{name}: {c['allocs_per_op']} allocs/op on a "
                f"zero-alloc benchmark")
            verdict = "FAIL allocs"
    elif c["allocs_per_op"] > b["allocs_per_op"] * 1.30:
        failures.append(
            f"{name}: {c['allocs_per_op']} allocs/op exceeds 130% of "
            f"baseline {b['allocs_per_op']}")
        verdict = "FAIL allocs"
    print(f"  {name}: median of {len(c['rounds'])} {c['ns_per_op']:.0f} ns/op (base {b['ns_per_op']:.0f}), "
          f"{c['allocs_per_op']} allocs/op (base {b['allocs_per_op']}) [{verdict}]")

# Cross-benchmark ratio contracts: each entry pins one benchmark to a
# maximum multiple of another (the median of the per-round ratios), so
# the relationship survives machine drift that moves both absolute
# numbers together.
for name, spec in sorted(doc.get("ratios", {}).items()):
    c, ref = current.get(name), current.get(spec["vs"])
    if c is None or ref is None:
        failures.append(f"ratio {name}: benchmark missing from current run")
        continue
    ratio = statistics.median(
        a / b for a, b in zip(c["rounds"], ref["rounds"]))
    verdict = "ok" if ratio <= spec["max_ratio"] else "FAIL ratio"
    if verdict != "ok":
        failures.append(
            f"{name}: {ratio:.2f}x {spec['vs']} exceeds the "
            f"{spec['max_ratio']}x contract")
    print(f"  {name} / {spec['vs']}: {ratio:.2f}x "
          f"(max {spec['max_ratio']}x) [{verdict}]")

if failures:
    print("\nbench gate FAILED:")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("\nbench gate passed")
PY
