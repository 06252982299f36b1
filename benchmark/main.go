// Command benchmark is the repository's one end-to-end benchmark: an
// in-process xydiffd behind a loopback listener, one closed-loop client
// on one keep-alive connection, three workloads, every answer checked.
// BENCHMARK.json names its metrics; README.md says how to read them.
//
//	go run ./benchmark --workload ingest_large --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result as one JSON object;
// everything meant for a reader goes to standard error. Exit codes: 0
// complete, 1 a correctness failure, 2 the budget ran out before every
// op kind had 100 samples, 3 the run could not be made at all.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"os/exec"
	"time"
)

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minSamples is how many samples every op kind needs for a run cut
// short by the budget to still count as complete.
const minSamples = 100

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload `name`: ingest_large, ingest_html or history_mix")
	seed := fs.Int64("seed", 1, "corpus and script seed")
	seconds := fs.Float64("seconds", nominalSeconds, "time the timed passes may take; the script is sized to it")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	budget := fs.Duration("budget", 150*time.Second, "deadline for the whole run; outstanding work is cancelled and the report still printed")
	out := fs.String("out", ".bench_build", "`directory` for scratch data and trace-<workload>.jsonl")
	aa := fs.Int("aa", 0, "A/A mode: run every workload on this many seeds, twice, in fresh processes, and compare with the bounds of BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 3
	}
	if *aa > 0 {
		return runAA(*aa, *seed, *seconds, stdout, stderr)
	}
	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(stderr, "benchmark: need --workload ingest_large|ingest_html|history_mix, --seconds > 0, --trace 0|1\n")
		return 3
	}
	ctx, cancel := context.WithTimeout(context.Background(), *budget)
	defer cancel()
	res, code, err := measure(ctx, w.scaled(*seconds), *seed, *seconds, *trace == 1, *out, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 3
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 3
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// measure runs one workload once and returns the result with the exit
// code it deserves.
func measure(ctx context.Context, w *workload, seed int64, seconds float64, traced bool, out string, stderr io.Writer) (*result, int, error) {
	c, err := newCorpus(w, seed)
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	h := &harness{c: c, dir: dir, seed: maphash.MakeSeed(), ref: newReference()}
	return h.measure(ctx, seconds, traced, out, stderr)
}

func (h *harness) measure(ctx context.Context, seconds float64, traced bool, out string, stderr io.Writer) (*result, int, error) {
	var v values
	var err error
	defs, samples := endToEnd, minSamples
	if traced {
		defs = perLayer
		v, err = h.runTraced(ctx, seconds, out)
	} else {
		v, samples, err = h.runEndToEnd(ctx, seconds)
	}
	if err != nil {
		return nil, 0, err
	}
	res := &result{
		Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	fmt.Fprintf(stderr, "%s seed-generated corpus in %.2fs, %d scripted ops, %d requests, %d failed\n",
		h.c.w.name, h.c.genTime.Seconds(), len(h.c.script), h.attempted, h.failed)
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: v[d.name], Unit: d.unit}
		fmt.Fprintf(stderr, "  %-38s %14.4f %s\n", d.name, v[d.name], d.unit)
	}
	for _, n := range h.notes {
		fmt.Fprintf(stderr, "  %s\n", n)
	}
	for _, f := range h.failures {
		fmt.Fprintf(stderr, "  FAILED %s\n", f)
	}
	switch {
	case h.failed > 0:
		return res, 1, nil
	case ctx.Err() != nil && samples < minSamples:
		fmt.Fprintf(stderr, "  budget ran out with %d samples of the rarest op kind\n", samples)
		return res, 2, nil
	}
	return res, 0, nil
}

// manifest is the part of BENCHMARK.json the A/A mode reads.
type manifest struct {
	Command   []string                `json:"command"`
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// quartiles are Python's statistics.quantiles(xs, n=4): the exclusive
// method, which the acceptance rule names.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := min(max(int(pos), 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// runAA is the builder's A/A check, the acceptance rule run locally:
// two sets of n runs per workload, each run a fresh process on its own
// seed. It prints, per end-to-end metric and workload, the spread of
// each set (interquartile range ÷ median) and how much worse the
// second median is than the first, beside the bound, and fails when a
// spread passes a third of the bound or the drift half of it.
func runAA(n int, seed int64, seconds float64, stdout, stderr io.Writer) int {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 3
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 3
	}
	code := 0
	for _, w := range m.Workloads {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = make(map[string][]float64)
			for i := 0; i < n; i++ {
				res, err := runChild(self, w.Name, seed+int64(set*n+i), seconds, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
					return 3
				}
				for name, mv := range res.Metrics {
					sets[set][name] = append(sets[set][name], mv.Value)
				}
			}
		}
		fmt.Fprintf(stdout, "%s (%d runs per set)\n  %-30s %12s %12s %8s %8s %8s %6s\n", w.Name, n,
			"metric", "median 1", "median 2", "spread 1", "spread 2", "drift", "bound")
		for _, e := range m.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][e.Name])
			b1, b2, b3 := quartiles(sets[1][e.Name])
			drift := (b2 - a2) / a2
			if e.Better == "higher" {
				drift = -drift
			}
			s1, s2 := (a3-a1)/a2, (b3-b1)/b2
			verdict := ""
			if e.Name != "setup_s" && max(s1, s2) > e.Bound/3 || drift > e.Bound/2 {
				verdict, code = "  TOO NOISY", 1
			}
			fmt.Fprintf(stdout, "  %-30s %12.4f %12.4f %7.1f%% %7.1f%% %+7.1f%% %5.0f%%%s\n",
				e.Name, a2, b2, 100*s1, 100*s2, 100*drift, 100*e.Bound, verdict)
		}
	}
	return code
}

// runChild runs one workload in a fresh process and parses the last
// line of its standard output.
func runChild(self, workload string, seed int64, seconds float64, stderr io.Writer) (*result, error) {
	start := time.Now()
	out, err := exec.Command(self,
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0").Output()
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	fmt.Fprintf(stderr, "%s seed %d took %.1fs\n", workload, seed, time.Since(start).Seconds())
	return &res, nil
}
