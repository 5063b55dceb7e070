#!/bin/sh
# bench.sh runs the full benchmark sweep with -benchmem and emits a
# machine-readable JSON record (ns/op, B/op, allocs/op per benchmark) via
# cmd/benchjson. The committed BENCH_pr10.json is the serial baseline the
# verify bench-gate compares against; the sweep runs at -cpu 1 (GOMAXPROCS=1)
# so a re-recorded baseline stays serial too.
#
# Usage:
#   scripts/bench.sh [output.json]
#
# Knobs (environment):
#   BENCH_TIME      -benchtime value (default 3x: heavy analysis benchmarks
#                   run in hundreds of ms, so a few iterations are stable)
#   BENCH_PATTERN   -bench pattern (default ".")
#   BENCH_BASELINE  baseline filename the verify bench-gate compares
#                   against; used as the default output path and label
#                   source (default BENCH_pr10.json)
#   BENCH_LABEL     label stored in the JSON record (default: derived from
#                   the baseline name, e.g. BENCH_pr10.json -> "pr10")
set -eu

cd "$(dirname "$0")/.."

baseline=${BENCH_BASELINE:-BENCH_pr10.json}
out=${1:-$baseline}
benchtime=${BENCH_TIME:-3x}
pattern=${BENCH_PATTERN:-.}
label=${BENCH_LABEL:-$(basename "$baseline" .json | sed 's/^BENCH_//')}

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT INT TERM

echo "==> go test -bench '$pattern' -benchmem -benchtime $benchtime -cpu 1 ."
go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -cpu 1 . | tee "$workdir/bench.out"

echo "==> emitting $out"
go run ./cmd/benchjson emit -label "$label" <"$workdir/bench.out" >"$out"
echo "bench: wrote $(grep -c 'ns/op' "$workdir/bench.out") benchmark results to $out"
