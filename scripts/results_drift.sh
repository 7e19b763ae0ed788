#!/usr/bin/env bash
# results_drift.sh — regenerate the committed experiment series and
# fail if any differs from results/.
#
#   scripts/results_drift.sh           every experiment the registry marks
#                                      pinned except policy (~30 s): Figure 1
#                                      and Tables 1-3 against results/tables.txt,
#                                      fig4, fabric, failover, fig7, fig8
#                                      against their TSVs
#   scripts/results_drift.sh -policy   those plus the full 10^4-key
#                                      policy trace (~10 min more; peak
#                                      RSS 0.5 GB)
#
# The simulation is deterministic, so results/*.tsv and
# results/tables.txt are a function of the source tree: a refactor that
# is supposed to move no number proves it by leaving them
# byte-identical, and a change that does move one has to regenerate the
# file (go run ./cmd/seuss-experiments -run NAME -out results; for
# tables.txt, the stdout of fig1, table1, table2 and table3 in that
# order) and say so. A difference this script reports is therefore
# never noise.
set -euo pipefail

cd "$(dirname "$0")/.."
policy=0
case "${1:-}" in
  "") ;;
  -policy) policy=1 ;;
  *) echo "usage: $0 [-policy]" >&2; exit 2 ;;
esac

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
BIN="$TMP/seuss-experiments"
go build -o "$BIN" ./cmd/seuss-experiments
mkdir "$TMP/out"

# The list is the registry's: -h prints one "name all|- results/FILE|-"
# line per experiment.
PINNED="$("$BIN" -h 2>&1 | awk '$3 ~ /^results\// { print $1 ":" $3 }')"
[ -n "$PINNED" ] || { echo "results drift: no pinned experiment in '$BIN -h'" >&2; exit 2; }

files=""
for run in $PINNED; do
  name="${run%%:*}" file="${run##*:}"
  if [ "$name" = policy ] && [ "$policy" -eq 0 ]; then continue; fi
  echo "== $name" >&2
  "$BIN" -run "$name" -out "$TMP/out" >"$TMP/stdout"
  # An experiment with no series is held by its rendered text; those
  # share results/tables.txt, in registry order.
  if [ "$file" = results/tables.txt ]; then cat "$TMP/stdout" >>"$TMP/out/tables.txt"; fi
  case " $files " in *" $file "*) ;; *) files="$files $file" ;; esac
done

status=0
for file in $files; do
  if cmp "$file" "$TMP/out/${file#results/}"; then
    echo "   $file: identical" >&2
  else
    echo "   $file: DIFFERS from what this tree produces" >&2
    diff "$file" "$TMP/out/${file#results/}" | head -5 >&2 || true
    status=1
  fi
done
if [ "$status" -ne 0 ]; then
  echo "results drift: FAILED" >&2
else
  echo "results drift: none" >&2
fi
exit "$status"
