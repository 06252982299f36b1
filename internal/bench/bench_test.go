package bench

import (
	"fmt"
	"testing"
)

// The paper's experiments as benchmarks: each runs the experiment
// function xybench prints, at the sizes and seeds below, and reports
// the quantities its figure or table plots as custom metrics, each
// the mean over the benchmark's runs. A run is the whole experiment —
// building its documents, simulating the change, diffing — so ns/op is
// the experiment's cost, not the diff's; the diff's own times are the
// ns/ and us/ metrics. `make bench` runs them with the root package's
// system benchmarks.

// runs calls experiment b.N times and returns what each call gave.
func runs[T any](b *testing.B, experiment func() (T, error)) []T {
	out := make([]T, 0, b.N)
	for range b.N {
		r, err := experiment()
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// reportMean reports the mean of f over results as the metric unit.
func reportMean[T any](b *testing.B, results []T, unit string, f func(T) float64) {
	sum := 0.0
	for _, r := range results {
		sum += f(r)
	}
	b.ReportMetric(sum/float64(len(results)), unit)
}

// BenchmarkFig4_PhaseTimes is Figure 4: the time of each BULD phase,
// in ns per diff, across document sizes.
func BenchmarkFig4_PhaseTimes(b *testing.B) {
	for _, size := range []int{1_000, 10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			points := runs(b, func() ([]fig4Point, error) { return fig4([]int{size}, 4) })
			reportMean(b, points, "ns/phase1+2", func(p []fig4Point) float64 { return float64(p[0].phase12) })
			reportMean(b, points, "ns/phase3", func(p []fig4Point) float64 { return float64(p[0].phase3) })
			reportMean(b, points, "ns/phase4", func(p []fig4Point) float64 { return float64(p[0].phase4) })
			reportMean(b, points, "ns/phase5", func(p []fig4Point) float64 { return float64(p[0].phase5) })
		})
	}
}

// BenchmarkFig5_Quality is Figure 5: the size of the computed delta
// against the change simulator's perfect delta, across change rates.
// The ratio is the figure's y-axis.
func BenchmarkFig5_Quality(b *testing.B) {
	for _, rate := range []float64{0.05, 0.10, 0.30, 0.50} {
		b.Run(fmt.Sprintf("rate=%.2f", rate), func(b *testing.B) {
			points := runs(b, func() ([]fig5Point, error) { return fig5(30_000, []float64{rate}, 5) })
			reportMean(b, points, "deltaB", func(p []fig5Point) float64 { return float64(p[0].computedBytes) })
			reportMean(b, points, "perfectB", func(p []fig5Point) float64 { return float64(p[0].perfectBytes) })
			reportMean(b, points, "ratio", func(p []fig5Point) float64 { return p[0].ratio })
		})
	}
}

// BenchmarkFig6_UnixDiffRatio is Figure 6: delta size over Unix diff
// size, averaged over a synthetic web corpus of 40 document pairs.
func BenchmarkFig6_UnixDiffRatio(b *testing.B) {
	sums := runs(b, func() (fig6Summary, error) {
		_, sum, err := fig6(40, 6)
		return sum, err
	})
	reportMean(b, sums, "delta/unixdiff", func(s fig6Summary) float64 { return s.meanRatio })
	reportMean(b, sums, "docs", func(s fig6Summary) float64 { return float64(s.docs) })
}

// BenchmarkSiteSnapshot is the Section 6.2 experiment: diffing two
// snapshots of a whole web site. The page count keeps the benchmark
// quick; xybench -full site runs the paper's 14 000 pages.
func BenchmarkSiteSnapshot(b *testing.B) {
	results := runs(b, func() (siteResult, error) { return site(2_000, 7) })
	reportMean(b, results, "docB", func(r siteResult) float64 { return float64(r.docBytes) })
	reportMean(b, results, "ns/core", func(r siteResult) float64 { return float64(r.coreTime) })
}

// BenchmarkVsBaselines is the state-of-the-art comparison (Section 3):
// BULD against the Selkow-variant tree edit distance, the LaDiff-style
// matcher and the DiffMK-style list diff, in µs per diff, at growing
// node counts: the quasi-linear against the quadratic.
func BenchmarkVsBaselines(b *testing.B) {
	for _, nodes := range []int{200, 1_000, 4_000} {
		b.Run(fmt.Sprintf("n=%d", nodes), func(b *testing.B) {
			points := runs(b, func() ([]baselinePoint, error) { return baselines([]int{nodes}, int64(nodes)) })
			reportMean(b, points, "us/buld", func(p []baselinePoint) float64 { return float64(p[0].buld) / 1e3 })
			reportMean(b, points, "us/luselkow", func(p []baselinePoint) float64 { return float64(p[0].luSelkow) / 1e3 })
			reportMean(b, points, "us/ladiff", func(p []baselinePoint) float64 { return float64(p[0].laDiff) / 1e3 })
			reportMean(b, points, "us/diffmk", func(p []baselinePoint) float64 { return float64(p[0].diffMK) / 1e3 })
		})
	}
}

// BenchmarkMoveQuality isolates move detection (the Section 6.1
// discussion): a move-heavy change mix, with the moves found against
// the perfect delta's.
func BenchmarkMoveQuality(b *testing.B) {
	for _, prob := range []float64{0.25, 0.75} {
		b.Run(fmt.Sprintf("moveProb=%.2f", prob), func(b *testing.B) {
			points := runs(b, func() ([]movePoint, error) { return moves(20_000, []float64{prob}, 8) })
			reportMean(b, points, "moves", func(p []movePoint) float64 { return float64(p[0].foundMoves) })
			reportMean(b, points, "perfectMoves", func(p []movePoint) float64 { return float64(p[0].perfectMoves) })
		})
	}
}

// BenchmarkAblation is the design-choice variants DESIGN.md calls out:
// lazy against eager down-propagation, ID attributes on and off, exact
// against windowed intra-parent LIS, propagation passes and ancestor
// depth, each reported as its delta's bytes.
func BenchmarkAblation(b *testing.B) {
	points := runs(b, func() ([]ablationPoint, error) { return ablations(50_000, 9) })
	for i, p := range points[0] {
		reportMean(b, points, p.name+"-B", func(p []ablationPoint) float64 { return float64(p[i].deltaSize) })
	}
}
