package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"xydiff/internal/changesim"
	"xydiff/internal/diff"
)

// Bench5Report is the machine-readable benchmark record behind
// BENCH_5.json: per-workload time and allocation rates and
// delta-quality ratios. The regression gate (scripts/benchdiff.sh)
// compares a fresh report against the committed one with coarse
// tolerances, so the perf trajectory is data, not prose.
type Bench5Report struct {
	Schema     int    `json:"schema"`
	Mode       string `json:"mode"` // "quick" or "full"
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"numCPU"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`

	Entries []BenchEntry   `json:"entries"`
	Quality []QualityEntry `json:"quality"`
}

// BenchEntry is one measured workload.
type BenchEntry struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"nsPerOp"`
	BytesPerOp  int64  `json:"bytesPerOp"`
	AllocsPerOp int64  `json:"allocsPerOp"`
}

// QualityEntry records a computed/perfect delta-size ratio.
type QualityEntry struct {
	Name  string  `json:"name"`
	Ratio float64 `json:"ratio"`
}

// bench5Sizes are the fig4 workloads measured for the report.
var bench5Sizes = []int{100_000, 500_000}

// Bench5 measures the report. Quick mode uses fewer repetitions per
// point (a couple of seconds total) and is what scripts/check.sh runs;
// the committed baseline is generated without quick.
func Bench5(quick bool, seed int64) (*Bench5Report, error) {
	r := &Bench5Report{
		Schema:     1,
		Mode:       "full",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       seed,
	}
	if quick {
		r.Mode = "quick"
	}
	reps := 5
	if quick {
		reps = 2
	}

	// Per-workload time and allocation rates.
	rng := rand.New(rand.NewSource(seed))
	for _, size := range bench5Sizes {
		oldDoc := changesim.CatalogOfSize(rng, size)
		sim, err := changesim.Simulate(oldDoc, changesim.Uniform(0.10, seed+int64(size)))
		if err != nil {
			return nil, err
		}
		ns, bytesOp, allocs := measure(reps, func() {
			if _, err2 := diff.Diff(oldDoc.Clone(), sim.New.Clone(), diff.Options{}); err2 != nil {
				err = err2
			}
		})
		if err != nil {
			return nil, err
		}
		r.Entries = append(r.Entries, BenchEntry{
			Name:        fmt.Sprintf("fig4/catalog-%dKB", len(oldDoc.String())/1024),
			NsPerOp:     ns,
			BytesPerOp:  bytesOp,
			AllocsPerOp: allocs,
		})
	}

	// Delta-quality ratios at the Figure 5 rates the paper highlights.
	qualityRates := []float64{0.05, 0.20}
	qp, err := Fig5(50_000, qualityRates, seed)
	if err != nil {
		return nil, err
	}
	for _, p := range qp {
		r.Quality = append(r.Quality, QualityEntry{
			Name:  fmt.Sprintf("fig5/rate-%.2f", p.ChangeRate),
			Ratio: p.Ratio,
		})
	}
	return r, nil
}

// measure runs fn reps times (after one warm-up) and returns per-op
// wall time, heap bytes and allocation counts. It reads runtime totals
// directly instead of testing.Benchmark so quick mode controls the
// repetition count exactly.
func measure(reps int, fn func()) (nsPerOp, bytesPerOp, allocsPerOp int64) {
	fn() // warm up pools and the scheduler
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := int64(reps)
	return elapsed.Nanoseconds() / n,
		int64(after.TotalAlloc-before.TotalAlloc) / n,
		int64(after.Mallocs-before.Mallocs) / n
}

// WriteJSON serializes the report.
func (r *Bench5Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadBench5 parses a report written by WriteJSON.
func ReadBench5(r io.Reader) (*Bench5Report, error) {
	var out Bench5Report
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("bench: parsing report: %w", err)
	}
	return &out, nil
}

// Compare checks a fresh report against a committed baseline and
// returns one message per violated gate. Tolerances are deliberately
// coarse — the gate exists to catch gross regressions on arbitrary CI
// hardware, not 5% drifts: time may grow 3x, allocation counts 1.5x
// and quality ratios by +0.15. B/op is recorded but not gated: over a
// two-repetition quick run TotalAlloc depends on when the GC ran, and
// the gate failed unchanged code.
func (r *Bench5Report) Compare(baseline *Bench5Report) []string {
	var bad []string
	base := map[string]BenchEntry{}
	for _, e := range baseline.Entries {
		base[e.Name] = e
	}
	for _, e := range r.Entries {
		b, ok := base[e.Name]
		if !ok {
			continue // workload not in the baseline: nothing to gate
		}
		if b.NsPerOp > 0 && e.NsPerOp > 3*b.NsPerOp {
			bad = append(bad, fmt.Sprintf("%s: time %dns/op > 3x baseline %dns/op", e.Name, e.NsPerOp, b.NsPerOp))
		}
		if b.AllocsPerOp > 0 && float64(e.AllocsPerOp) > 1.5*float64(b.AllocsPerOp) {
			bad = append(bad, fmt.Sprintf("%s: %d allocs/op > 1.5x baseline %d allocs/op", e.Name, e.AllocsPerOp, b.AllocsPerOp))
		}
	}
	baseQ := map[string]float64{}
	for _, q := range baseline.Quality {
		baseQ[q.Name] = q.Ratio
	}
	for _, q := range r.Quality {
		if b, ok := baseQ[q.Name]; ok && q.Ratio > b+0.15 {
			bad = append(bad, fmt.Sprintf("%s: quality ratio %.2f exceeds baseline %.2f by more than 0.15", q.Name, q.Ratio, b))
		}
	}
	return bad
}

// PrintBench5 renders the report for humans (the JSON goes to -json).
func PrintBench5(w io.Writer, r *Bench5Report) {
	fmt.Fprintf(w, "# BENCH_5 (%s mode, %s %s/%s, %d CPU)\n", r.Mode, r.GoVersion, r.GOOS, r.GOARCH, r.NumCPU)
	fmt.Fprintf(w, "%-24s %14s %14s %12s\n", "workload", "ns/op", "B/op", "allocs/op")
	for _, e := range r.Entries {
		fmt.Fprintf(w, "%-24s %14d %14d %12d\n", e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}
	for _, q := range r.Quality {
		fmt.Fprintf(w, "%-24s ratio %.2f\n", q.Name, q.Ratio)
	}
}
