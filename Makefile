# The pre-PR gate: `make check` is what CI runs and what every change
# should pass locally before review. Gate order, cheapest signal first:
#
#   1. fmt        — gofmt, no-op diff required
#   2. vet        — `go vet` then `xyvet`, the repo's own analyzer suite
#                   (internal/analysis: nopanic, lockbalance, ctxflow,
#                   errwrap, segorder, goroleak, poolbalance, timerleak,
#                   depbound, staleallow); any diagnostic
#                   fails the gate
#   3. build      — every package compiles
#   4. race       — the whole test suite under the race detector,
#                   including the concurrent Put/Diff/Subscribe stress test
#   5. fuzz-smoke — every fuzzer briefly, no corpus growth kept
#   6. load-smoke — the storage load harness at the smoke size; fails
#                   unless group commit holds fsyncs-per-Put under 0.1
#                   with 64 concurrent writers
#   7. scrub-smoke — bit-rot round-trip: flip a bit in a sealed
#                   segment, assert the scrubber detects and repairs it
#                   byte-identically (and the CLI path quarantines what
#                   it cannot repair)
#   8. match-smoke — SFTM match quality on the id-less changesim HTML
#                   corpus: absolute precision/recall floors plus
#                   beating BULD-without-IDs on both axes
#   9. xpath-smoke — the differential XPath harness: 6000 generated
#                   query×document pairs evaluated by both xpathlite
#                   and the independent naive evaluator, zero
#                   divergences tolerated
#  10. bench-check — quick bench5–bench8 runs gated against
#                   BENCH_5.json … BENCH_8.json (coarse tolerances;
#                   catches gross perf and match-quality regressions,
#                   holds SFTM to beating BULD-without-IDs on the
#                   id-less HTML corpus, and holds every matcher's
#                   delta cost to the optdelta oracle's optimum)
#
# scripts/check.sh runs the same sequence standalone (no make needed).
GO ?= go

.PHONY: check fmt vet xyvet build test race bench fuzz-smoke load-smoke scrub-smoke match-smoke xpath-smoke bench-json bench-json6 bench-json7 bench-json8 bench-check server crawl-demo

check: fmt vet build race fuzz-smoke load-smoke scrub-smoke match-smoke xpath-smoke bench-check

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...
	$(GO) run ./cmd/xyvet ./...

xyvet:
	$(GO) run ./cmd/xyvet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .

# Regenerate the committed benchmark baselines for the diff core:
# BENCH_5.json (per-workload ns/op + B/op, delta-quality ratios) and
# BENCH_7.json (the matcher comparison, via the bench-json7
# prerequisite).
bench-json: bench-json7
	$(GO) run ./cmd/xybench -json BENCH_5.json bench5

# Regenerate the committed storage-engine baseline (BENCH_6.json):
# group-commit fsync amortization, latency percentiles, recovery time.
bench-json6:
	$(GO) run ./cmd/xybench -json BENCH_6.json bench6

# Match-quality smoke: on the id-less changesim HTML corpus SFTM must
# hold its absolute precision/recall floors and beat BULD-without-IDs
# on both axes.
match-smoke:
	$(GO) test ./internal/changesim -run '^TestSFTMQualityOnHTMLCorpus$$' -count=1 -v

# Regenerate the committed matcher baseline (BENCH_7.json): SFTM vs
# BULD-without-IDs precision/recall on the id-less HTML corpus and
# delta sizes vs the perfect delta.
bench-json7:
	$(GO) run ./cmd/xybench -json BENCH_7.json bench7

# Regenerate the committed optimality baseline (BENCH_8.json): BULD,
# SFTM and changesim's perfect delta costed against the exact optimum
# the optdelta oracle proves on small trees.
bench-json8:
	$(GO) run ./cmd/xybench -json BENCH_8.json bench8

# Differential XPath smoke: xpathlite vs the deliberately naive
# second evaluator over 6000 generated query×document pairs; any
# disagreement (node set, order, or compile verdict) fails the gate.
xpath-smoke:
	$(GO) test ./internal/xptest -run '^TestXPathDifferentialSeeded$$' -count=1 -v

# Gate fresh quick-mode runs against the committed baselines; see
# scripts/benchdiff.sh for the tolerances.
bench-check:
	./scripts/benchdiff.sh -quick

# Storage load harness at the smoke size: 64 concurrent writers must
# amortize to fewer than 0.1 fsyncs per acknowledged Put while keeping
# -journal-sync=always semantics (every acked Put fsynced before ack).
load-smoke:
	$(GO) run ./cmd/xyload -assert-fsync-ratio 0.1

# Bit-rot smoke: one flipped bit in a sealed segment must be detected
# and repaired byte-identically within a single scrub cycle, and the
# xystore scrub subcommand must quarantine (never serve) what an
# offline pass cannot rebuild.
scrub-smoke:
	$(GO) test ./internal/vstore -run '^TestScrubRepairsCorruptSealedSegment$$' -count=1
	$(GO) test ./cmd/xystore -run '^TestScrubCommand' -count=1

# Smoke-run every fuzzer briefly: ~10s each, no corpus growth kept.
# Go runs one fuzz target per invocation, hence one line per fuzzer.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test ./internal/dom -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dom -run '^$$' -fuzz '^FuzzParseDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/htmlize -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xpathlite -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/delta -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/delta -run '^$$' -fuzz '^FuzzApply$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/delta -run '^$$' -fuzz '^FuzzMarshalIdentical$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/delta -run '^$$' -fuzz '^FuzzDeltaDecodeDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vstore -run '^$$' -fuzz '^FuzzReadWalks$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vstore -run '^$$' -fuzz '^FuzzSnapshotLoad$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/diff -run '^$$' -fuzz '^FuzzDiffApply$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/diff -run '^$$' -fuzz '^FuzzSFTMApply$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/diff -run '^$$' -fuzz '^FuzzBULDMatchingDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sftm -run '^$$' -fuzz '^FuzzMatchDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xptest -run '^$$' -fuzz '^FuzzXPathDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xptest -run '^$$' -fuzz '^FuzzXPathDifferentialRaw$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/optdelta -run '^$$' -fuzz '^FuzzOptDeltaSound$$' -fuzztime $(FUZZTIME)

# Run the change-control daemon locally (data in ./xydiffd-data).
server:
	$(GO) run ./cmd/xydiffd -addr :8427

# Watch the adaptive crawler converge on a simulated changing web
# (Figure 1's first box, self-contained, ~5 seconds).
crawl-demo:
	$(GO) run ./examples/crawl
