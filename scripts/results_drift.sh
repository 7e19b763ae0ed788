#!/usr/bin/env bash
# results_drift.sh — regenerate the committed experiment series and
# fail if any differs from results/.
#
#   scripts/results_drift.sh           the fast experiments (~30 s):
#                                      fig4, fabric, failover, fig7, fig8
#   scripts/results_drift.sh -policy   those plus the full 10^4-key
#                                      policy trace (~10 min and ~10 GB of
#                                      RAM more)
#
# The simulation is deterministic, so results/*.tsv are a function of
# the source tree: a refactor that is supposed to move no number proves
# it by leaving them byte-identical, and a change that does move one has
# to regenerate the file (go run ./cmd/seuss-experiments -run NAME -out
# results) and say so. A difference this script reports is therefore
# never noise.
set -euo pipefail

cd "$(dirname "$0")/.."
RUNS="fig4:figure4.tsv fabric:fabric.tsv failover:failover.tsv fig7:fig7.tsv fig8:fig8.tsv"
case "${1:-}" in
  "") ;;
  -policy) RUNS="$RUNS policy:policy.tsv" ;;
  *) echo "usage: $0 [-policy]" >&2; exit 2 ;;
esac

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
go build -o "$TMP/seuss-experiments" ./cmd/seuss-experiments

status=0
for run in $RUNS; do
  name="${run%%:*}" file="${run##*:}"
  echo "== $name" >&2
  "$TMP/seuss-experiments" -run "$name" -out "$TMP/out" >/dev/null
  if cmp "results/$file" "$TMP/out/$file"; then
    echo "   results/$file: identical" >&2
  else
    echo "   results/$file: DIFFERS from what this tree produces" >&2
    diff "results/$file" "$TMP/out/$file" | head -5 >&2 || true
    status=1
  fi
done
if [ "$status" -ne 0 ]; then
  echo "results drift: FAILED" >&2
else
  echo "results drift: none" >&2
fi
exit "$status"
