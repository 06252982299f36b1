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
//	bench5      machine-readable perf record: ns/op + B/op per workload,
//	            quality ratios (see -json / -compare)
//	bench6      machine-readable storage-engine record: group-commit
//	            fsync amortization, Put/reconstruct latency, cache hit
//	            ratio, recovery time (see -json / -compare)
//	bench7      machine-readable matcher comparison on the id-less HTML
//	            corpus: SFTM vs BULD precision/recall, delta sizes,
//	            diff time (see -json / -compare)
//	bench8      machine-readable optimality-ratio record: BULD, SFTM and
//	            changesim's perfect delta vs the exact optimum on small
//	            trees (optdelta oracle, see -json / -compare)
//	all         everything above except bench5, bench6, bench7 and bench8
//
// Flags:
//
//	-full        run the full-size workloads (several minutes); the default
//	             quick mode keeps every experiment under a few seconds
//	-seed n      random seed (default 1)
//	-quick       bench5–bench8: smaller workload (the check.sh smoke)
//	-json path   bench5–bench8: write the report to path (- for stdout)
//	-compare p   bench5–bench8: gate the fresh report against a
//	             committed baseline; exit 1 when a tolerance is violated
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"xydiff/internal/bench"
)

type benchConfig struct {
	full    bool
	seed    int64
	quick   bool
	json    string
	compare string
}

func main() {
	var cfg benchConfig
	flag.BoolVar(&cfg.full, "full", false, "run full-size workloads")
	flag.Int64Var(&cfg.seed, "seed", 1, "random `seed`")
	flag.BoolVar(&cfg.quick, "quick", false, "bench5-bench8: smaller workload")
	flag.StringVar(&cfg.json, "json", "", "bench5-bench8: write report to `path` (- for stdout)")
	flag.StringVar(&cfg.compare, "compare", "", "bench5-bench8: compare against baseline report at `path`")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: xybench [flags] fig4|fig5|fig6|site|baselines|moves|ablation|stats|bench5|bench6|bench7|bench8|all\n")
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

// runBench5 measures the report, optionally writes it, optionally gates
// it against a committed baseline.
func runBench5(w io.Writer, cfg benchConfig) error {
	r, err := bench.Bench5(cfg.quick, cfg.seed)
	if err != nil {
		return err
	}
	bench.PrintBench5(w, r)
	if cfg.json != "" {
		if cfg.json == "-" {
			if err := r.WriteJSON(w); err != nil {
				return err
			}
		} else {
			f, err := os.Create(cfg.json)
			if err != nil {
				return err
			}
			if err := r.WriteJSON(f); err != nil {
				_ = f.Close() // the write error is the one worth reporting
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	if cfg.compare != "" {
		f, err := os.Open(cfg.compare)
		if err != nil {
			return err
		}
		baseline, err := bench.ReadBench5(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if bad := r.Compare(baseline); len(bad) > 0 {
			for _, msg := range bad {
				fmt.Fprintln(os.Stderr, "bench regression:", msg)
			}
			return fmt.Errorf("%d benchmark gate(s) violated (baseline %s)", len(bad), cfg.compare)
		}
		fmt.Fprintf(w, "bench gate: ok against %s\n", cfg.compare)
	}
	return nil
}

// runBench6 runs the storage-engine load harness, optionally writes
// the report, optionally gates it against a committed baseline.
func runBench6(w io.Writer, cfg benchConfig) error {
	r, err := bench.Bench6(cfg.quick, cfg.seed)
	if err != nil {
		return err
	}
	bench.PrintBench6(w, r)
	if cfg.json != "" {
		if cfg.json == "-" {
			if err := r.WriteJSON(w); err != nil {
				return err
			}
		} else {
			f, err := os.Create(cfg.json)
			if err != nil {
				return err
			}
			if err := r.WriteJSON(f); err != nil {
				_ = f.Close() // the write error is the one worth reporting
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	if cfg.compare != "" {
		f, err := os.Open(cfg.compare)
		if err != nil {
			return err
		}
		baseline, err := bench.ReadBench6(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if bad := r.Compare(baseline); len(bad) > 0 {
			for _, msg := range bad {
				fmt.Fprintln(os.Stderr, "storage bench regression:", msg)
			}
			return fmt.Errorf("%d storage benchmark gate(s) violated (baseline %s)", len(bad), cfg.compare)
		}
		fmt.Fprintf(w, "storage bench gate: ok against %s\n", cfg.compare)
	}
	return nil
}

// runBench7 runs the matcher-comparison experiment, optionally writes
// the report, optionally gates it against a committed baseline.
func runBench7(w io.Writer, cfg benchConfig) error {
	r, err := bench.Bench7(cfg.quick, cfg.seed)
	if err != nil {
		return err
	}
	bench.PrintBench7(w, r)
	if cfg.json != "" {
		if cfg.json == "-" {
			if err := r.WriteJSON(w); err != nil {
				return err
			}
		} else {
			f, err := os.Create(cfg.json)
			if err != nil {
				return err
			}
			if err := r.WriteJSON(f); err != nil {
				_ = f.Close() // the write error is the one worth reporting
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	if cfg.compare != "" {
		f, err := os.Open(cfg.compare)
		if err != nil {
			return err
		}
		baseline, err := bench.ReadBench7(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if bad := r.Compare(baseline); len(bad) > 0 {
			for _, msg := range bad {
				fmt.Fprintln(os.Stderr, "matcher bench regression:", msg)
			}
			return fmt.Errorf("%d matcher benchmark gate(s) violated (baseline %s)", len(bad), cfg.compare)
		}
		fmt.Fprintf(w, "matcher bench gate: ok against %s\n", cfg.compare)
	}
	return nil
}

// runBench8 runs the optimality-ratio experiment, optionally writes
// the report, optionally gates it against a committed baseline.
func runBench8(w io.Writer, cfg benchConfig) error {
	r, err := bench.Bench8(cfg.quick, cfg.seed)
	if err != nil {
		return err
	}
	bench.PrintBench8(w, r)
	if cfg.json != "" {
		if cfg.json == "-" {
			if err := r.WriteJSON(w); err != nil {
				return err
			}
		} else {
			f, err := os.Create(cfg.json)
			if err != nil {
				return err
			}
			if err := r.WriteJSON(f); err != nil {
				_ = f.Close() // the write error is the one worth reporting
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	if cfg.compare != "" {
		f, err := os.Open(cfg.compare)
		if err != nil {
			return err
		}
		baseline, err := bench.ReadBench8(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if bad := r.Compare(baseline); len(bad) > 0 {
			for _, msg := range bad {
				fmt.Fprintln(os.Stderr, "optimality bench regression:", msg)
			}
			return fmt.Errorf("%d optimality benchmark gate(s) violated (baseline %s)", len(bad), cfg.compare)
		}
		fmt.Fprintf(w, "optimality bench gate: ok against %s\n", cfg.compare)
	}
	return nil
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
		case "bench5":
			return runBench5(w, cfg)
		case "bench6":
			return runBench6(w, cfg)
		case "bench7":
			return runBench7(w, cfg)
		case "bench8":
			return runBench8(w, cfg)
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
