#!/bin/sh
# Entry point named by BENCHMARK.json. Runs from the root of a checkout
# and keeps every build product inside it: the Go build cache, the
# seuss-node binary and the snapshot directories all live under
# .bench_build/, so a run reads and writes nothing outside the checkout.
set -e
mkdir -p .bench_build
GOCACHE="$PWD/.bench_build/gocache"
export GOCACHE
exec go run -C bench . "$@"
