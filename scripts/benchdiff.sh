#!/bin/sh
# scripts/benchdiff.sh — the benchmark-regression gate.
#
# Runs the bench5 (diff core), bench6 (storage engine), bench7
# (matcher comparison) and bench8 (optimality ratio) experiments and
# compares each fresh report against its committed baseline
# (BENCH_5.json … BENCH_8.json). The tolerances live in internal/bench
# (Bench5Report.Compare … Bench8Report.Compare) and are deliberately
# coarse — 3x on time, 1.5x on allocation counts, +0.15 on
# delta-quality and optimality ratios, 3x on fsyncs-per-Put with an
# absolute never-one-fsync-per-Put floor, -0.03 on match
# precision/recall with the absolute requirement that SFTM beats
# BULD-without-IDs on the id-less HTML corpus, and the absolute
# requirement that no computed delta ever costs less than the optdelta
# oracle's proven optimum — so the gate catches gross regressions on
# any hardware without flaking on load noise.
#
# Usage:
#   scripts/benchdiff.sh           full-size runs against the baselines
#   scripts/benchdiff.sh -quick    smaller workloads (the check.sh smoke)
#
# Regenerate the baselines after an intentional perf change with:
#   make bench-json bench-json6 bench-json7 bench-json8
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}
BASELINE=${BASELINE:-BENCH_5.json}
BASELINE6=${BASELINE6:-BENCH_6.json}
BASELINE7=${BASELINE7:-BENCH_7.json}
BASELINE8=${BASELINE8:-BENCH_8.json}

if [ ! -f "$BASELINE" ]; then
    echo "benchdiff: no baseline at $BASELINE (generate one with 'make bench-json')" >&2
    exit 1
fi
if [ ! -f "$BASELINE6" ]; then
    echo "benchdiff: no baseline at $BASELINE6 (generate one with 'make bench-json6')" >&2
    exit 1
fi
if [ ! -f "$BASELINE7" ]; then
    echo "benchdiff: no baseline at $BASELINE7 (generate one with 'make bench-json7')" >&2
    exit 1
fi
if [ ! -f "$BASELINE8" ]; then
    echo "benchdiff: no baseline at $BASELINE8 (generate one with 'make bench-json8')" >&2
    exit 1
fi

QUICK=""
if [ "${1:-}" = "-quick" ]; then
    QUICK="-quick"
fi

$GO run ./cmd/xybench $QUICK -compare "$BASELINE" bench5
$GO run ./cmd/xybench $QUICK -compare "$BASELINE6" bench6
$GO run ./cmd/xybench $QUICK -compare "$BASELINE7" bench7
$GO run ./cmd/xybench $QUICK -compare "$BASELINE8" bench8
