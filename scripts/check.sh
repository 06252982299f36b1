#!/bin/sh
# scripts/check.sh — the full pre-PR gate as one standalone script
# (the same sequence `make check` runs, usable where make is absent).
#
# Order, cheapest signal first:
#   1. build       every package compiles
#   2. go vet      the toolchain's own analyzers
#   3. xyvet       the repo's domain analyzers (internal/analysis);
#                  any diagnostic is a hard failure
#   4. race tests  the whole suite under -race, including the
#                  concurrent Put/Diff/Subscribe stress test
#   5. fuzz smoke  every fuzzer briefly (FUZZTIME, default 10s)
#   6. load smoke  storage load harness: 64 concurrent writers must
#                  amortize to < 0.1 fsyncs per acknowledged Put
#   7. scrub smoke  bit-rot round-trip: a flipped bit in a sealed
#                  segment is detected and repaired byte-identically
#                  in one scrub cycle
#   8. match smoke  SFTM match quality on the id-less changesim HTML
#                  corpus: absolute precision/recall floors plus
#                  beating BULD-without-IDs on both axes
#   9. xpath smoke  differential XPath harness: 6000 generated
#                  query×document pairs, xpathlite vs the naive
#                  evaluator, zero divergences tolerated
#  10. bench smoke quick bench5–bench8 runs compared against the
#                  committed BENCH_5.json … BENCH_8.json with coarse
#                  tolerances (3x time, 1.5x allocations, +0.15
#                  quality/optimality ratio, 3x fsyncs-per-Put,
#                  -0.03 match precision/recall, and no delta ever
#                  under the proven optimum)
#
# Exits nonzero on the first failing step.
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}
FUZZTIME=${FUZZTIME:-10s}

echo "==> build"
$GO build ./...

echo "==> go vet"
$GO vet ./...

echo "==> xyvet"
$GO run ./cmd/xyvet ./...

echo "==> go test -race"
$GO test -race ./...

echo "==> fuzz smoke (${FUZZTIME} per fuzzer)"
$GO test ./internal/dom -run '^$' -fuzz '^FuzzParse$' -fuzztime "$FUZZTIME"
$GO test ./internal/dom -run '^$' -fuzz '^FuzzParseDifferential$' -fuzztime "$FUZZTIME"
$GO test ./internal/htmlize -run '^$' -fuzz '^FuzzParse$' -fuzztime "$FUZZTIME"
$GO test ./internal/xpathlite -run '^$' -fuzz '^FuzzCompile$' -fuzztime "$FUZZTIME"
$GO test ./internal/delta -run '^$' -fuzz '^FuzzParse$' -fuzztime "$FUZZTIME"
$GO test ./internal/delta -run '^$' -fuzz '^FuzzApply$' -fuzztime "$FUZZTIME"
$GO test ./internal/delta -run '^$' -fuzz '^FuzzMarshalIdentical$' -fuzztime "$FUZZTIME"
$GO test ./internal/delta -run '^$' -fuzz '^FuzzDeltaDecodeDifferential$' -fuzztime "$FUZZTIME"
$GO test ./internal/vstore -run '^$' -fuzz '^FuzzReadWalks$' -fuzztime "$FUZZTIME"
$GO test ./internal/vstore -run '^$' -fuzz '^FuzzSnapshotLoad$' -fuzztime "$FUZZTIME"
$GO test ./internal/diff -run '^$' -fuzz '^FuzzDiffApply$' -fuzztime "$FUZZTIME"
$GO test ./internal/diff -run '^$' -fuzz '^FuzzSFTMApply$' -fuzztime "$FUZZTIME"
$GO test ./internal/diff -run '^$' -fuzz '^FuzzBULDMatchingDifferential$' -fuzztime "$FUZZTIME"
$GO test ./internal/sftm -run '^$' -fuzz '^FuzzMatchDifferential$' -fuzztime "$FUZZTIME"
$GO test ./internal/xptest -run '^$' -fuzz '^FuzzXPathDifferential$' -fuzztime "$FUZZTIME"
$GO test ./internal/xptest -run '^$' -fuzz '^FuzzXPathDifferentialRaw$' -fuzztime "$FUZZTIME"
$GO test ./internal/optdelta -run '^$' -fuzz '^FuzzOptDeltaSound$' -fuzztime "$FUZZTIME"

echo "==> load smoke"
$GO run ./cmd/xyload -assert-fsync-ratio 0.1

echo "==> scrub smoke"
$GO test ./internal/vstore -run '^TestScrubRepairsCorruptSealedSegment$' -count=1
$GO test ./cmd/xystore -run '^TestScrubCommand' -count=1

echo "==> match smoke"
$GO test ./internal/changesim -run '^TestSFTMQualityOnHTMLCorpus$' -count=1 -v

echo "==> xpath smoke"
$GO test ./internal/xptest -run '^TestXPathDifferentialSeeded$' -count=1 -v

echo "==> bench smoke"
./scripts/benchdiff.sh -quick

echo "==> check clean"
