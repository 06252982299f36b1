// Command xybench regenerates the paper's experimental tables and
// figures on synthetic workloads (see DESIGN.md for the experiment
// index and EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	xybench [flags] <experiment>
//
// Experiments:
//
//	fig4        per-phase running time vs document size (Figure 4)
//	fig5        delta quality vs the change simulator's perfect delta (Figure 5)
//	fig6        delta size over Unix diff size on a synthetic web corpus (Figure 6)
//	site        the Section 6.2 web-site snapshot diff
//	baselines   BULD vs Lu/Selkow, LaDiff-style and DiffMK-style
//	moves       move-detection quality sweep
//	ablation    design-choice ablations
//	stats       per-label change-frequency statistics (paper §7)
//	all         everything above
//
// Flags:
//
//	-full        run the full-size workloads (several minutes); the default
//	             quick mode keeps every experiment under a few seconds
//	-seed n      random seed (default 1)
//
// The count-like quality numbers (Figure 5's ratios at two rates, the
// SFTM/BULD matcher sweep, the optimality record) are pinned by the
// TestQualityPinned test in internal/bench, not printed here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"xydiff/internal/bench"
)

type benchConfig struct {
	full bool
	seed int64
}

func main() {
	var cfg benchConfig
	flag.BoolVar(&cfg.full, "full", false, "run full-size workloads")
	flag.Int64Var(&cfg.seed, "seed", 1, "random `seed`")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: xybench [flags] fig4|fig5|fig6|site|baselines|moves|ablation|stats|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "xybench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, experiment string, cfg benchConfig) error {
	full, seed := cfg.full, cfg.seed
	runOne := func(name string) error {
		switch name {
		case "fig4":
			sizes := []int{1_000, 5_000, 20_000, 100_000, 500_000}
			if full {
				sizes = append(sizes, 2_000_000, 5_000_000)
			}
			points, err := bench.Fig4(sizes, seed)
			if err != nil {
				return err
			}
			bench.PrintFig4(w, points)
		case "fig5":
			size := 50_000
			if full {
				size = 500_000
			}
			rates := []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50}
			points, err := bench.Fig5(size, rates, seed)
			if err != nil {
				return err
			}
			bench.PrintFig5(w, points)
		case "fig6":
			count := 40
			if full {
				count = 200 // the paper's "about two hundred XML documents"
			}
			points, sum, err := bench.Fig6(count, seed)
			if err != nil {
				return err
			}
			bench.PrintFig6(w, points, sum)
		case "site":
			pages := 2_000
			if full {
				pages = 14_000 // the paper's www.inria.fr scale
			}
			r, err := bench.Site(pages, seed)
			if err != nil {
				return err
			}
			bench.PrintSite(w, r)
		case "baselines":
			counts := []int{100, 300, 1_000, 3_000}
			if full {
				counts = append(counts, 10_000, 30_000)
			}
			points, err := bench.Baselines(counts, seed)
			if err != nil {
				return err
			}
			bench.PrintBaselines(w, points)
		case "moves":
			size := 30_000
			if full {
				size = 200_000
			}
			probs := []float64{0.0, 0.1, 0.25, 0.5, 0.75, 1.0}
			points, err := bench.Moves(size, probs, seed)
			if err != nil {
				return err
			}
			bench.PrintMoves(w, points)
		case "ablation":
			size := 50_000
			if full {
				size = 500_000
			}
			points, err := bench.Ablations(size, seed)
			if err != nil {
				return err
			}
			bench.PrintAblations(w, points)
		case "stats":
			size := 50_000
			weeks := 8
			if full {
				size, weeks = 500_000, 26
			}
			report, err := bench.ChangeStats(size, weeks, seed)
			if err != nil {
				return err
			}
			report.WriteTable(w)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}
	if experiment == "all" {
		for _, name := range []string{"fig4", "fig5", "fig6", "site", "baselines", "moves", "ablation", "stats"} {
			if err := runOne(name); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	return runOne(experiment)
}
