// Package bench contains the experiment runners that regenerate the
// paper's tables and figures (Section 6). Each experiment is a pure
// function from parameters to result rows, which this package's tests
// check, and an exported runner that writes the rows as the
// experiment's table, shared by the xybench CLI and the root-level
// testing.B benchmarks; EXPERIMENTS.md records the measured outcomes
// next to the paper's claims. The count-like quality
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

// Fig4 measures Figure 4's phase decomposition over the sizes and
// writes its table to w.
func Fig4(w io.Writer, sizes []int, seed int64) error {
	return show(w, printFig4)(fig4(sizes, seed))
}

// Fig5 sweeps Figure 5's change rates and writes its table to w.
func Fig5(w io.Writer, docBytes int, rates []float64, seed int64) error {
	return show(w, printFig5)(fig5(docBytes, rates, seed))
}

// Fig6 runs Figure 6's web corpus of count pairs and writes its table
// and summary to w.
func Fig6(w io.Writer, count int, seed int64) error {
	points, sum, err := fig6(count, seed)
	if err == nil {
		printFig6(w, points, sum)
	}
	return err
}

// Site diffs two snapshots of a site of the given page count and
// writes the result to w.
func Site(w io.Writer, pages int, seed int64) error {
	return show(w, printSite)(site(pages, seed))
}

// Baselines compares BULD with the quadratic baselines over the node
// counts and writes the table to w.
func Baselines(w io.Writer, nodeCounts []int, seed int64) error {
	return show(w, printBaselines)(baselines(nodeCounts, seed))
}

// Moves sweeps the move probability and writes the table to w.
func Moves(w io.Writer, docBytes int, probs []float64, seed int64) error {
	return show(w, printMoves)(moves(docBytes, probs, seed))
}

// Ablations compares the paper's configuration with its variants and
// writes the table to w.
func Ablations(w io.Writer, docBytes int, seed int64) error {
	return show(w, printAblations)(ablations(docBytes, seed))
}

// show returns a function that writes an experiment's rows to w with
// print, unless computing them failed.
func show[T any](w io.Writer, print func(io.Writer, T)) func(T, error) error {
	return func(rows T, err error) error {
		if err == nil {
			print(w, rows)
		}
		return err
	}
}

// ---------------------------------------------------------------------------
// Figure 4: per-phase running time vs. document size.

// fig4Point is one measurement of Figure 4: the per-phase running time
// of the diff for a document pair of a given total size.
type fig4Point struct {
	bytes    int // total size of both serialized documents
	nodes    int
	phase12  time.Duration // parse/annotate + ID matching (paper: "phase 1 + phase 2")
	phase3   time.Duration
	phase4   time.Duration
	phase5   time.Duration
	total    time.Duration
	opsTotal int
}

// fig4 measures the phase decomposition over a size sweep. Sizes are
// target byte sizes of the old document; the change simulator runs at
// the paper's 10% probabilities.
func fig4(sizes []int, seed int64) ([]fig4Point, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []fig4Point
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
		out = append(out, fig4Point{
			bytes:    oldBytes + newBytes,
			nodes:    r.OldNodes + r.NewNodes,
			phase12:  r.Timings.Phase1 + r.Timings.Phase2,
			phase3:   r.Timings.Phase3,
			phase4:   r.Timings.Phase4,
			phase5:   r.Timings.Phase5,
			total:    r.Timings.Total(),
			opsTotal: r.Delta.Count().Total(),
		})
	}
	return out, nil
}

// printFig4 renders the sweep as the series behind Figure 4.
func printFig4(w io.Writer, points []fig4Point) {
	fmt.Fprintf(w, "# Figure 4: time cost of the different phases (microseconds)\n")
	fmt.Fprintf(w, "%12s %10s %12s %12s %12s %12s %12s\n",
		"bytes", "nodes", "phase1+2", "phase3", "phase4", "phase5", "total")
	for _, p := range points {
		fmt.Fprintf(w, "%12d %10d %12d %12d %12d %12d %12d\n",
			p.bytes, p.nodes, p.phase12.Microseconds(), p.phase3.Microseconds(),
			p.phase4.Microseconds(), p.phase5.Microseconds(), p.total.Microseconds())
	}
}

// ---------------------------------------------------------------------------
// Figure 5: computed delta size vs. synthetic (perfect) delta size.

// fig5Point compares the diff's delta against the change simulator's
// perfect delta for one change rate.
type fig5Point struct {
	changeRate    float64
	perfectBytes  int
	computedBytes int
	perfectOps    int
	computedOps   int
	ratio         float64 // computed / perfect, the paper's quality measure
}

// fig5 sweeps change rates on a document of the given size, including
// the move-heavy mixes the paper highlights.
func fig5(docBytes int, rates []float64, seed int64) ([]fig5Point, error) {
	rng := rand.New(rand.NewSource(seed))
	oldDoc := changesim.CatalogOfSize(rng, docBytes)
	var out []fig5Point
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
		out = append(out, fig5Point{
			changeRate:    rate,
			perfectBytes:  perfect,
			computedBytes: computed,
			perfectOps:    sim.Perfect.Count().Total(),
			computedOps:   d.Count().Total(),
			ratio:         ratio,
		})
	}
	return out, nil
}

// printFig5 renders the quality sweep.
func printFig5(w io.Writer, points []fig5Point) {
	fmt.Fprintf(w, "# Figure 5: quality of diff (computed delta vs synthetic perfect delta)\n")
	fmt.Fprintf(w, "%8s %14s %14s %12s %12s %8s\n",
		"rate", "perfect(B)", "computed(B)", "perfectOps", "computedOps", "ratio")
	for _, p := range points {
		fmt.Fprintf(w, "%8.2f %14d %14d %12d %12d %8.2f\n",
			p.changeRate, p.perfectBytes, p.computedBytes, p.perfectOps, p.computedOps, p.ratio)
	}
}

// ---------------------------------------------------------------------------
// Figure 6: delta size over Unix diff size on web-like documents.

// fig6Point compares the XML delta with Unix diff output for one
// document pair of the synthetic web corpus.
type fig6Point struct {
	docBytes  int
	deltaSize int
	unixSize  int
	ratio     float64
	kind      string
}

// fig6Summary aggregates the per-document ratios the way the paper's
// figure legend does.
type fig6Summary struct {
	docs        int
	meanRatio   float64
	nearEqual   int // ratio in [0.5, 2]
	twiceLarger int // ratio > 2
	twiceSmall  int // ratio < 0.5
}

// fig6 runs the web-corpus experiment with count document pairs.
func fig6(count int, seed int64) ([]fig6Point, fig6Summary, error) {
	rng := rand.New(rand.NewSource(seed))
	corpus, err := changesim.WebCorpus(rng, count)
	if err != nil {
		return nil, fig6Summary{}, err
	}
	var out []fig6Point
	var sum fig6Summary
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
		out = append(out, fig6Point{
			docBytes: len(oldText), deltaSize: d.Size(), unixSize: unixSize,
			ratio: ratio, kind: cd.Kind,
		})
		totalRatio += ratio
		switch {
		case ratio > 2:
			sum.twiceLarger++
		case ratio < 0.5:
			sum.twiceSmall++
		default:
			sum.nearEqual++
		}
		sum.docs++
	}
	if sum.docs > 0 {
		sum.meanRatio = totalRatio / float64(sum.docs)
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

// printFig6 renders the per-size ratio series and the summary.
func printFig6(w io.Writer, points []fig6Point, sum fig6Summary) {
	fmt.Fprintf(w, "# Figure 6: delta size over Unix diff size ratio\n")
	fmt.Fprintf(w, "%12s %12s %12s %8s  %s\n", "doc(B)", "delta(B)", "unixdiff(B)", "ratio", "kind")
	for _, p := range points {
		fmt.Fprintf(w, "%12d %12d %12d %8.2f  %s\n", p.docBytes, p.deltaSize, p.unixSize, p.ratio, p.kind)
	}
	fmt.Fprintf(w, "# %d docs, mean ratio %.2f; near-equal %d, >2x %d, <0.5x %d\n",
		sum.docs, sum.meanRatio, sum.nearEqual, sum.twiceLarger, sum.twiceSmall)
}

// ---------------------------------------------------------------------------
// Section 6.2: the web-site snapshot experiment.

// siteResult reports the headline snapshot-diff measurements.
type siteResult struct {
	pages     int
	docBytes  int
	coreTime  time.Duration // phases 3+4, the paper's "core ... less than two seconds"
	totalTime time.Duration // including annotation and delta construction
	deltaSize int
	ops       delta.Counts
}

// site diffs two synthetic snapshots of a web site with the given page
// count (the paper's www.inria.fr had about fourteen thousand pages).
func site(pages int, seed int64) (siteResult, error) {
	oldDoc, newDoc, err := changesim.SiteSnapshotPair(seed, pages)
	if err != nil {
		return siteResult{}, err
	}
	size := len(oldDoc.String())
	r, err := diff.DiffDetailed(oldDoc, newDoc, diff.Options{})
	if err != nil {
		return siteResult{}, err
	}
	return siteResult{
		pages:     pages,
		docBytes:  size,
		coreTime:  r.Timings.Phase3 + r.Timings.Phase4,
		totalTime: r.Timings.Total(),
		deltaSize: r.Delta.Size(),
		ops:       r.Delta.Count(),
	}, nil
}

// printSite renders the snapshot result.
func printSite(w io.Writer, r siteResult) {
	fmt.Fprintf(w, "# Section 6.2: web-site snapshot diff\n")
	fmt.Fprintf(w, "pages=%d size=%dB core=%v total=%v delta=%dB ops=(%s)\n",
		r.pages, r.docBytes, r.coreTime, r.totalTime, r.deltaSize, r.ops)
}

// ---------------------------------------------------------------------------
// State-of-the-art comparison: BULD vs the quadratic baselines.

// baselinePoint compares running time and delta size across algorithms
// for one document size.
type baselinePoint struct {
	nodes     int
	buld      time.Duration
	luSelkow  time.Duration
	laDiff    time.Duration
	diffMK    time.Duration
	buldSize  int
	luSize    int
	laSize    int
	diffMKOps int
}

// baselines sweeps node counts with the standard 10% change mix. The
// quadratic baselines dominate the running time of this experiment, so
// keep sizes moderate.
func baselines(nodeCounts []int, seed int64) ([]baselinePoint, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []baselinePoint
	for _, n := range nodeCounts {
		oldDoc := changesim.Generic(rng, n, 8, 6)
		sim, err := changesim.Simulate(oldDoc, changesim.Uniform(0.10, seed+int64(n)))
		if err != nil {
			return nil, err
		}
		var p baselinePoint
		p.nodes = oldDoc.Size()

		start := time.Now()
		db, err := diff.Diff(oldDoc.Clone(), sim.New.Clone(), diff.Options{})
		if err != nil {
			return nil, err
		}
		p.buld = time.Since(start)
		p.buldSize = db.Size()

		start = time.Now()
		dl, err := baseline.LuSelkow(oldDoc.Clone(), sim.New.Clone())
		if err != nil {
			return nil, err
		}
		p.luSelkow = time.Since(start)
		p.luSize = dl.Size()

		start = time.Now()
		dd, err := baseline.LaDiff(oldDoc.Clone(), sim.New.Clone())
		if err != nil {
			return nil, err
		}
		p.laDiff = time.Since(start)
		p.laSize = dd.Size()

		start = time.Now()
		mk := baseline.DiffMK(oldDoc, sim.New)
		p.diffMK = time.Since(start)
		p.diffMKOps = mk.Changed()

		out = append(out, p)
	}
	return out, nil
}

// printBaselines renders the comparison table.
func printBaselines(w io.Writer, points []baselinePoint) {
	fmt.Fprintf(w, "# State of the art: running time (microseconds) and delta size (bytes)\n")
	fmt.Fprintf(w, "%8s %10s %10s %10s %10s %10s %10s %10s\n",
		"nodes", "buld(us)", "lu(us)", "ladiff(us)", "diffmk(us)", "buld(B)", "lu(B)", "ladiff(B)")
	for _, p := range points {
		fmt.Fprintf(w, "%8d %10d %10d %10d %10d %10d %10d %10d\n",
			p.nodes, p.buld.Microseconds(), p.luSelkow.Microseconds(),
			p.laDiff.Microseconds(), p.diffMK.Microseconds(),
			p.buldSize, p.luSize, p.laSize)
	}
}

// ---------------------------------------------------------------------------
// Move-detection quality (the Section 6.1 discussion around Figure 5).

// movePoint compares computed and perfect deltas under a move-heavy
// change mix.
type movePoint struct {
	moveProb     float64
	perfectMoves int
	foundMoves   int
	perfectBytes int
	foundBytes   int
}

// moves sweeps the move probability while keeping the other operations
// at a low fixed rate, isolating move-detection quality.
func moves(docBytes int, probs []float64, seed int64) ([]movePoint, error) {
	rng := rand.New(rand.NewSource(seed))
	oldDoc := changesim.CatalogOfSize(rng, docBytes)
	var out []movePoint
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
		out = append(out, movePoint{
			moveProb:     prob,
			perfectMoves: sim.Perfect.Count().Moves,
			foundMoves:   d.Count().Moves,
			perfectBytes: sim.Perfect.Size(),
			foundBytes:   d.Size(),
		})
	}
	return out, nil
}

// printMoves renders the move-quality sweep.
func printMoves(w io.Writer, points []movePoint) {
	fmt.Fprintf(w, "# Move detection quality\n")
	fmt.Fprintf(w, "%10s %14s %12s %14s %12s\n", "moveProb", "perfectMoves", "foundMoves", "perfect(B)", "found(B)")
	for _, p := range points {
		fmt.Fprintf(w, "%10.2f %14d %12d %14d %12d\n",
			p.moveProb, p.perfectMoves, p.foundMoves, p.perfectBytes, p.foundBytes)
	}
}

// ---------------------------------------------------------------------------
// Ablations over the design choices DESIGN.md calls out.

// ablationPoint measures one configuration on the standard workload.
type ablationPoint struct {
	name      string
	time      time.Duration
	deltaSize int
	ops       int
}

// ablations compares the paper's configuration against variants:
// eager-down matching, no ID attributes, exact vs windowed intra-parent
// LIS, and extra propagation passes.
func ablations(docBytes int, seed int64) ([]ablationPoint, error) {
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
	var out []ablationPoint
	for _, cfg := range configs {
		start := time.Now()
		d, err := diff.Diff(oldDoc.Clone(), sim.New.Clone(), cfg.opts)
		if err != nil {
			return nil, err
		}
		out = append(out, ablationPoint{
			name: cfg.name, time: time.Since(start),
			deltaSize: d.Size(), ops: d.Count().Total(),
		})
	}
	return out, nil
}

// printAblations renders the configuration comparison.
func printAblations(w io.Writer, points []ablationPoint) {
	fmt.Fprintf(w, "# Ablations (10%% change mix)\n")
	fmt.Fprintf(w, "%-16s %10s %12s %8s\n", "config", "time(us)", "delta(B)", "ops")
	for _, p := range points {
		fmt.Fprintf(w, "%-16s %10d %12d %8d\n", p.name, p.time.Microseconds(), p.deltaSize, p.ops)
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
