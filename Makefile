# The pre-PR gate: `make check` is what CI runs and what every change
# should pass locally before review. It runs scripts/check.sh, which
# holds the gate's six stages (fmt, vet, build, race, norace,
# fuzz-smoke) and the one list of fuzz targets; FUZZTIME sets each
# fuzzer's budget.
GO ?= go
FUZZTIME ?= 10s

.PHONY: check xyvet test bench server crawl-demo

check:
	GO="$(GO)" FUZZTIME="$(FUZZTIME)" ./scripts/check.sh

xyvet:
	$(GO) run ./cmd/xyvet ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem . ./internal/bench

# Run the change-control daemon locally (data in ./xydiffd-data).
server:
	$(GO) run ./cmd/xydiffd -addr :8427

# Watch the adaptive crawler converge on a simulated changing web
# (Figure 1's first box, self-contained, ~5 seconds).
crawl-demo:
	$(GO) run ./examples/crawl
