// Package bench contains the experiment runners that regenerate the
// paper's tables and figures (Section 6). Each experiment is a pure
// function from parameters to result rows, shared by the xybench CLI
// and the root-level testing.B benchmarks; EXPERIMENTS.md records the
// measured outcomes next to the paper's claims. The count-like quality
// numbers (Figure 5's ratios, the matcher sweep, the optimality record)
// are pinned by TestQualityPinned against testdata/quality.json.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"xydiff/internal/baseline"
	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/stats"
	"xydiff/internal/textdiff"
)

// ---------------------------------------------------------------------------
// Figure 4: per-phase running time vs. document size.

// Fig4Point is one measurement of Figure 4: the per-phase running time
// of the diff for a document pair of a given total size.
type Fig4Point struct {
	Bytes    int // total size of both serialized documents
	Nodes    int
	Phase12  time.Duration // parse/annotate + ID matching (paper: "phase 1 + phase 2")
	Phase3   time.Duration
	Phase4   time.Duration
	Phase5   time.Duration
	Total    time.Duration
	OpsTotal int
}

// Fig4 measures the phase decomposition over a size sweep. Sizes are
// target byte sizes of the old document; the change simulator runs at
// the paper's 10% probabilities.
func Fig4(sizes []int, seed int64) ([]Fig4Point, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []Fig4Point
	for _, size := range sizes {
		oldDoc := changesim.CatalogOfSize(rng, size)
		sim, err := changesim.Simulate(oldDoc, changesim.Uniform(0.10, seed+int64(size)))
		if err != nil {
			return nil, err
		}
		oldBytes := len(oldDoc.String())
		newBytes := len(sim.New.String())
		r, err := diff.DiffDetailed(oldDoc.Clone(), sim.New.Clone(), diff.Options{})
		if err != nil {
			return nil, err
		}
		out = append(out, Fig4Point{
			Bytes:    oldBytes + newBytes,
			Nodes:    r.OldNodes + r.NewNodes,
			Phase12:  r.Timings.Phase1 + r.Timings.Phase2,
			Phase3:   r.Timings.Phase3,
			Phase4:   r.Timings.Phase4,
			Phase5:   r.Timings.Phase5,
			Total:    r.Timings.Total(),
			OpsTotal: r.Delta.Count().Total(),
		})
	}
	return out, nil
}

// PrintFig4 renders the sweep as the series behind Figure 4.
func PrintFig4(w io.Writer, points []Fig4Point) {
	fmt.Fprintf(w, "# Figure 4: time cost of the different phases (microseconds)\n")
	fmt.Fprintf(w, "%12s %10s %12s %12s %12s %12s %12s\n",
		"bytes", "nodes", "phase1+2", "phase3", "phase4", "phase5", "total")
	for _, p := range points {
		fmt.Fprintf(w, "%12d %10d %12d %12d %12d %12d %12d\n",
			p.Bytes, p.Nodes, p.Phase12.Microseconds(), p.Phase3.Microseconds(),
			p.Phase4.Microseconds(), p.Phase5.Microseconds(), p.Total.Microseconds())
	}
}

// ---------------------------------------------------------------------------
// Figure 5: computed delta size vs. synthetic (perfect) delta size.

// Fig5Point compares the diff's delta against the change simulator's
// perfect delta for one change rate.
type Fig5Point struct {
	ChangeRate    float64
	PerfectBytes  int
	ComputedBytes int
	PerfectOps    int
	ComputedOps   int
	Ratio         float64 // computed / perfect, the paper's quality measure
}

// Fig5 sweeps change rates on a document of the given size, including
// the move-heavy mixes the paper highlights.
func Fig5(docBytes int, rates []float64, seed int64) ([]Fig5Point, error) {
	rng := rand.New(rand.NewSource(seed))
	oldDoc := changesim.CatalogOfSize(rng, docBytes)
	var out []Fig5Point
	for i, rate := range rates {
		sim, err := changesim.Simulate(oldDoc, changesim.Uniform(rate, seed+int64(i)+1))
		if err != nil {
			return nil, err
		}
		d, err := diff.Diff(oldDoc.Clone(), sim.New.Clone(), diff.Options{})
		if err != nil {
			return nil, err
		}
		perfect := sim.Perfect.Size()
		computed := d.Size()
		ratio := 0.0
		if perfect > 0 {
			ratio = float64(computed) / float64(perfect)
		}
		out = append(out, Fig5Point{
			ChangeRate:    rate,
			PerfectBytes:  perfect,
			ComputedBytes: computed,
			PerfectOps:    sim.Perfect.Count().Total(),
			ComputedOps:   d.Count().Total(),
			Ratio:         ratio,
		})
	}
	return out, nil
}

// PrintFig5 renders the quality sweep.
func PrintFig5(w io.Writer, points []Fig5Point) {
	fmt.Fprintf(w, "# Figure 5: quality of diff (computed delta vs synthetic perfect delta)\n")
	fmt.Fprintf(w, "%8s %14s %14s %12s %12s %8s\n",
		"rate", "perfect(B)", "computed(B)", "perfectOps", "computedOps", "ratio")
	for _, p := range points {
		fmt.Fprintf(w, "%8.2f %14d %14d %12d %12d %8.2f\n",
			p.ChangeRate, p.PerfectBytes, p.ComputedBytes, p.PerfectOps, p.ComputedOps, p.Ratio)
	}
}

// ---------------------------------------------------------------------------
// Figure 6: delta size over Unix diff size on web-like documents.

// Fig6Point compares the XML delta with Unix diff output for one
// document pair of the synthetic web corpus.
type Fig6Point struct {
	DocBytes  int
	DeltaSize int
	UnixSize  int
	Ratio     float64
	Kind      string
}

// Fig6Summary aggregates the per-document ratios the way the paper's
// figure legend does.
type Fig6Summary struct {
	Docs        int
	MeanRatio   float64
	NearEqual   int // ratio in [0.5, 2]
	TwiceLarger int // ratio > 2
	TwiceSmall  int // ratio < 0.5
}

// Fig6 runs the web-corpus experiment with count document pairs.
func Fig6(count int, seed int64) ([]Fig6Point, Fig6Summary, error) {
	rng := rand.New(rand.NewSource(seed))
	corpus, err := changesim.WebCorpus(rng, count)
	if err != nil {
		return nil, Fig6Summary{}, err
	}
	var out []Fig6Point
	var sum Fig6Summary
	var totalRatio float64
	for _, cd := range corpus {
		oldText := cd.Old.String()
		newText := cd.New.String()
		d, err := diff.Diff(cd.Old, cd.New, diff.Options{})
		if err != nil {
			return nil, sum, err
		}
		unixSize := textdiff.Size(prettyLines(oldText), prettyLines(newText))
		if unixSize == 0 {
			continue // no textual change: ratio undefined
		}
		ratio := float64(d.Size()) / float64(unixSize)
		out = append(out, Fig6Point{
			DocBytes: len(oldText), DeltaSize: d.Size(), UnixSize: unixSize,
			Ratio: ratio, Kind: cd.Kind,
		})
		totalRatio += ratio
		switch {
		case ratio > 2:
			sum.TwiceLarger++
		case ratio < 0.5:
			sum.TwiceSmall++
		default:
			sum.NearEqual++
		}
		sum.Docs++
	}
	if sum.Docs > 0 {
		sum.MeanRatio = totalRatio / float64(sum.Docs)
	}
	return out, sum, nil
}

// prettyLines re-serializes the one-line canonical XML with one node
// per line, the way web XML is usually formatted; without this, Unix
// diff sees a single line and its output balloons (a weakness of line
// diffs the paper mentions).
func prettyLines(xml string) string {
	out := make([]byte, 0, len(xml)+len(xml)/8)
	for i := 0; i < len(xml); i++ {
		out = append(out, xml[i])
		if xml[i] == '>' {
			out = append(out, '\n')
		}
	}
	return string(out)
}

// PrintFig6 renders the per-size ratio series and the summary.
func PrintFig6(w io.Writer, points []Fig6Point, sum Fig6Summary) {
	fmt.Fprintf(w, "# Figure 6: delta size over Unix diff size ratio\n")
	fmt.Fprintf(w, "%12s %12s %12s %8s  %s\n", "doc(B)", "delta(B)", "unixdiff(B)", "ratio", "kind")
	for _, p := range points {
		fmt.Fprintf(w, "%12d %12d %12d %8.2f  %s\n", p.DocBytes, p.DeltaSize, p.UnixSize, p.Ratio, p.Kind)
	}
	fmt.Fprintf(w, "# %d docs, mean ratio %.2f; near-equal %d, >2x %d, <0.5x %d\n",
		sum.Docs, sum.MeanRatio, sum.NearEqual, sum.TwiceLarger, sum.TwiceSmall)
}

// ---------------------------------------------------------------------------
// Section 6.2: the web-site snapshot experiment.

// SiteResult reports the headline snapshot-diff measurements.
type SiteResult struct {
	Pages     int
	DocBytes  int
	CoreTime  time.Duration // phases 3+4, the paper's "core ... less than two seconds"
	TotalTime time.Duration // including annotation and delta construction
	DeltaSize int
	Ops       delta.Counts
}

// Site diffs two synthetic snapshots of a web site with the given page
// count (the paper's www.inria.fr had about fourteen thousand pages).
func Site(pages int, seed int64) (SiteResult, error) {
	oldDoc, newDoc, err := changesim.SiteSnapshotPair(seed, pages)
	if err != nil {
		return SiteResult{}, err
	}
	size := len(oldDoc.String())
	r, err := diff.DiffDetailed(oldDoc, newDoc, diff.Options{})
	if err != nil {
		return SiteResult{}, err
	}
	return SiteResult{
		Pages:     pages,
		DocBytes:  size,
		CoreTime:  r.Timings.Phase3 + r.Timings.Phase4,
		TotalTime: r.Timings.Total(),
		DeltaSize: r.Delta.Size(),
		Ops:       r.Delta.Count(),
	}, nil
}

// PrintSite renders the snapshot result.
func PrintSite(w io.Writer, r SiteResult) {
	fmt.Fprintf(w, "# Section 6.2: web-site snapshot diff\n")
	fmt.Fprintf(w, "pages=%d size=%dB core=%v total=%v delta=%dB ops=(%s)\n",
		r.Pages, r.DocBytes, r.CoreTime, r.TotalTime, r.DeltaSize, r.Ops)
}

// ---------------------------------------------------------------------------
// State-of-the-art comparison: BULD vs the quadratic baselines.

// BaselinePoint compares running time and delta size across algorithms
// for one document size.
type BaselinePoint struct {
	Nodes     int
	BULD      time.Duration
	LuSelkow  time.Duration
	LaDiff    time.Duration
	DiffMK    time.Duration
	BULDSize  int
	LuSize    int
	LaSize    int
	DiffMKOps int
}

// Baselines sweeps node counts with the standard 10% change mix. The
// quadratic baselines dominate the running time of this experiment, so
// keep sizes moderate.
func Baselines(nodeCounts []int, seed int64) ([]BaselinePoint, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []BaselinePoint
	for _, n := range nodeCounts {
		oldDoc := changesim.Generic(rng, n, 8, 6)
		sim, err := changesim.Simulate(oldDoc, changesim.Uniform(0.10, seed+int64(n)))
		if err != nil {
			return nil, err
		}
		var p BaselinePoint
		p.Nodes = oldDoc.Size()

		start := time.Now()
		db, err := diff.Diff(oldDoc.Clone(), sim.New.Clone(), diff.Options{})
		if err != nil {
			return nil, err
		}
		p.BULD = time.Since(start)
		p.BULDSize = db.Size()

		start = time.Now()
		dl, err := baseline.LuSelkow(oldDoc.Clone(), sim.New.Clone())
		if err != nil {
			return nil, err
		}
		p.LuSelkow = time.Since(start)
		p.LuSize = dl.Size()

		start = time.Now()
		dd, err := baseline.LaDiff(oldDoc.Clone(), sim.New.Clone())
		if err != nil {
			return nil, err
		}
		p.LaDiff = time.Since(start)
		p.LaSize = dd.Size()

		start = time.Now()
		mk := baseline.DiffMK(oldDoc, sim.New)
		p.DiffMK = time.Since(start)
		p.DiffMKOps = mk.Changed()

		out = append(out, p)
	}
	return out, nil
}

// PrintBaselines renders the comparison table.
func PrintBaselines(w io.Writer, points []BaselinePoint) {
	fmt.Fprintf(w, "# State of the art: running time (microseconds) and delta size (bytes)\n")
	fmt.Fprintf(w, "%8s %10s %10s %10s %10s %10s %10s %10s\n",
		"nodes", "buld(us)", "lu(us)", "ladiff(us)", "diffmk(us)", "buld(B)", "lu(B)", "ladiff(B)")
	for _, p := range points {
		fmt.Fprintf(w, "%8d %10d %10d %10d %10d %10d %10d %10d\n",
			p.Nodes, p.BULD.Microseconds(), p.LuSelkow.Microseconds(),
			p.LaDiff.Microseconds(), p.DiffMK.Microseconds(),
			p.BULDSize, p.LuSize, p.LaSize)
	}
}

// ---------------------------------------------------------------------------
// Move-detection quality (the Section 6.1 discussion around Figure 5).

// MovePoint compares computed and perfect deltas under a move-heavy
// change mix.
type MovePoint struct {
	MoveProb     float64
	PerfectMoves int
	FoundMoves   int
	PerfectBytes int
	FoundBytes   int
}

// Moves sweeps the move probability while keeping the other operations
// at a low fixed rate, isolating move-detection quality.
func Moves(docBytes int, probs []float64, seed int64) ([]MovePoint, error) {
	rng := rand.New(rand.NewSource(seed))
	oldDoc := changesim.CatalogOfSize(rng, docBytes)
	var out []MovePoint
	for i, prob := range probs {
		sim, err := changesim.Simulate(oldDoc, changesim.Params{
			DeleteProb: 0.08, UpdateProb: 0.02, InsertProb: 0.08,
			MoveProb: prob, Seed: seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		d, err := diff.Diff(oldDoc.Clone(), sim.New.Clone(), diff.Options{})
		if err != nil {
			return nil, err
		}
		out = append(out, MovePoint{
			MoveProb:     prob,
			PerfectMoves: sim.Perfect.Count().Moves,
			FoundMoves:   d.Count().Moves,
			PerfectBytes: sim.Perfect.Size(),
			FoundBytes:   d.Size(),
		})
	}
	return out, nil
}

// PrintMoves renders the move-quality sweep.
func PrintMoves(w io.Writer, points []MovePoint) {
	fmt.Fprintf(w, "# Move detection quality\n")
	fmt.Fprintf(w, "%10s %14s %12s %14s %12s\n", "moveProb", "perfectMoves", "foundMoves", "perfect(B)", "found(B)")
	for _, p := range points {
		fmt.Fprintf(w, "%10.2f %14d %12d %14d %12d\n",
			p.MoveProb, p.PerfectMoves, p.FoundMoves, p.PerfectBytes, p.FoundBytes)
	}
}

// ---------------------------------------------------------------------------
// Ablations over the design choices DESIGN.md calls out.

// AblationPoint measures one configuration on the standard workload.
type AblationPoint struct {
	Name      string
	Time      time.Duration
	DeltaSize int
	Ops       int
}

// Ablations compares the paper's configuration against variants:
// eager-down matching, no ID attributes, exact vs windowed intra-parent
// LIS, and extra propagation passes.
func Ablations(docBytes int, seed int64) ([]AblationPoint, error) {
	rng := rand.New(rand.NewSource(seed))
	oldDoc := changesim.CatalogOfSize(rng, docBytes)
	sim, err := changesim.Simulate(oldDoc, changesim.Uniform(0.10, seed+7))
	if err != nil {
		return nil, err
	}
	configs := []struct {
		name string
		opts diff.Options
	}{
		{"paper-default", diff.Options{}},
		{"eager-down", diff.Options{EagerDown: true}},
		{"no-id-attrs", diff.Options{DisableIDAttributes: true}},
		{"lis-exact", diff.Options{LISWindow: -1}},
		{"lis-window-8", diff.Options{LISWindow: 8}},
		{"passes-3", diff.Options{PropagationPasses: 3}},
		{"depth-1", diff.Options{MaxAncestorDepth: 1}},
	}
	var out []AblationPoint
	for _, cfg := range configs {
		start := time.Now()
		d, err := diff.Diff(oldDoc.Clone(), sim.New.Clone(), cfg.opts)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{
			Name: cfg.name, Time: time.Since(start),
			DeltaSize: d.Size(), Ops: d.Count().Total(),
		})
	}
	return out, nil
}

// PrintAblations renders the configuration comparison.
func PrintAblations(w io.Writer, points []AblationPoint) {
	fmt.Fprintf(w, "# Ablations (10%% change mix)\n")
	fmt.Fprintf(w, "%-16s %10s %12s %8s\n", "config", "time(us)", "delta(B)", "ops")
	for _, p := range points {
		fmt.Fprintf(w, "%-16s %10d %12d %8d\n", p.Name, p.Time.Microseconds(), p.DeltaSize, p.Ops)
	}
}

// ChangeStats runs a multi-week change process over a corpus and
// returns the accumulated per-label change statistics (the conclusion's
// "gather statistics on change frequency, patterns of changes").
func ChangeStats(docBytes, weeks int, seed int64) (stats.Report, error) {
	rng := rand.New(rand.NewSource(seed))
	collector := stats.NewCollector()
	cur := changesim.CatalogOfSize(rng, docBytes)
	for week := 0; week < weeks; week++ {
		sim, err := changesim.Simulate(cur, changesim.Params{
			DeleteProb: 0.02, UpdateProb: 0.10, InsertProb: 0.02,
			MoveProb: 0.05, Seed: seed + int64(week),
		})
		if err != nil {
			return stats.Report{}, err
		}
		d, err := diff.Diff(cur, sim.New, diff.Options{})
		if err != nil {
			return stats.Report{}, err
		}
		collector.Observe(cur, sim.New, d)
		cur = sim.New
	}
	return collector.Report(), nil
}
