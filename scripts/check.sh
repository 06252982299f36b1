#!/bin/sh
# scripts/check.sh — the pre-PR gate. `make check` runs this script, so
# the gate is written once, here.
#
# Stages, cheapest signal first:
#   1. fmt         gofmt, no-op diff required
#   2. vet         go vet, then xyvet, the repo's own analyzer suite
#                  (internal/analysis: nopanic, lockbalance, ctxflow,
#                  errwrap, segorder, goroleak, poolbalance, timerleak,
#                  depbound, testonly, localexport, staleallow); any
#                  diagnostic fails the gate
#   3. build       every package compiles
#   4. race        the whole test suite under the race detector, then the
#                  vstore read-walk tests ten times more, since walks run
#                  concurrently under a document's read lock and swap
#                  decoded frames in by CAS, and the server's crawl and
#                  source tests five times more, since they run at
#                  production politeness and wait on real fetches. Among
#                  it: TestMetricsExposition, the format gate that parses
#                  /metrics as the Prometheus text format; the
#                  concurrent Put/Diff/Subscribe stress test, the
#                  scrub repair round trips, the differential XPath
#                  harness, SFTM's match-quality floors, and
#                  TestQualityPinned, which holds Figure 5's ratios, the
#                  matcher sweep and the optimality record to
#                  internal/bench/testdata/quality.json exactly. The
#                  allocation guards skip here: they count through
#                  internal/alloctest, which skips under -race
#   5. norace      the whole test suite again without the race detector,
#                  where every allocation guard counts, and every
#                  benchmark once (-benchtime 1x), so a benchmark that
#                  stops running fails the gate, not the next
#                  measurement; a new guard or benchmark needs no edit
#                  here
#   6. fuzz-smoke  every fuzzer briefly (FUZZTIME each, default 10s), no
#                  corpus growth kept; Go runs one fuzz target per
#                  invocation, so this is the repository's one list of
#                  them (TestFuzzSmokeListsEveryFuzzer keeps it complete)
#
# Exits nonzero on the first failing step.
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}
FUZZTIME=${FUZZTIME:-10s}

echo "==> fmt"
out=$(gofmt -l .)
if [ -n "$out" ]; then
    echo "gofmt needed on:"
    echo "$out"
    exit 1
fi

echo "==> vet"
$GO vet ./...
$GO run ./cmd/xyvet ./...

echo "==> build"
$GO build ./...

echo "==> race"
$GO test -race ./...
# Concurrent reads walk a document's chain under its read lock, and
# walks that first decode the same stored part swap its frame in
# together: their tests run again, repeatedly, under the race detector.
$GO test -race -count=10 ./internal/vstore -run 'ReadWalks'
# The server's crawl tests wait on real fetches at the crawler's
# production timings; repeating them is how a timing flake shows.
$GO test -race -count=5 ./internal/server -run 'Crawl|Source'

echo "==> norace"
$GO test -count=1 -bench . -benchtime 1x ./...

echo "==> fuzz-smoke (${FUZZTIME} per fuzzer)"
$GO test ./internal/dom -run '^$' -fuzz '^FuzzParse$' -fuzztime "$FUZZTIME"
$GO test ./internal/dom -run '^$' -fuzz '^FuzzParseDifferential$' -fuzztime "$FUZZTIME"
$GO test ./internal/dom -run '^$' -fuzz '^FuzzEscapeDifferential$' -fuzztime "$FUZZTIME"
$GO test ./internal/htmlize -run '^$' -fuzz '^FuzzParse$' -fuzztime "$FUZZTIME"
$GO test ./internal/xpathlite -run '^$' -fuzz '^FuzzCompile$' -fuzztime "$FUZZTIME"
$GO test ./internal/delta -run '^$' -fuzz '^FuzzParse$' -fuzztime "$FUZZTIME"
$GO test ./internal/delta -run '^$' -fuzz '^FuzzApply$' -fuzztime "$FUZZTIME"
$GO test ./internal/delta -run '^$' -fuzz '^FuzzMarshalIdentical$' -fuzztime "$FUZZTIME"
$GO test ./internal/delta -run '^$' -fuzz '^FuzzDeltaDecodeDifferential$' -fuzztime "$FUZZTIME"
$GO test ./internal/vstore -run '^$' -fuzz '^FuzzReadWalks$' -fuzztime "$FUZZTIME"
$GO test ./internal/vstore -run '^$' -fuzz '^FuzzSnapshotLoad$' -fuzztime "$FUZZTIME"
$GO test ./internal/vstore -run '^$' -fuzz '^FuzzThaw$' -fuzztime "$FUZZTIME"
$GO test ./internal/vstore -run '^$' -fuzz '^FuzzWalkLog$' -fuzztime "$FUZZTIME"
$GO test ./internal/vstore -run '^$' -fuzz '^FuzzResidentDelta$' -fuzztime "$FUZZTIME"
$GO test ./internal/vstore -run '^$' -fuzz '^FuzzDetachedEqual$' -fuzztime "$FUZZTIME"
$GO test ./internal/diff -run '^$' -fuzz '^FuzzDiffApply$' -fuzztime "$FUZZTIME"
$GO test ./internal/diff -run '^$' -fuzz '^FuzzSFTMApply$' -fuzztime "$FUZZTIME"
$GO test ./internal/diff -run '^$' -fuzz '^FuzzBULDMatchingDifferential$' -fuzztime "$FUZZTIME"
$GO test ./internal/sftm -run '^$' -fuzz '^FuzzMatchDifferential$' -fuzztime "$FUZZTIME"
$GO test ./internal/xptest -run '^$' -fuzz '^FuzzXPathDifferential$' -fuzztime "$FUZZTIME"
$GO test ./internal/xptest -run '^$' -fuzz '^FuzzXPathDifferentialRaw$' -fuzztime "$FUZZTIME"
$GO test ./internal/optdelta -run '^$' -fuzz '^FuzzOptDeltaSound$' -fuzztime "$FUZZTIME"

echo "==> check clean"
