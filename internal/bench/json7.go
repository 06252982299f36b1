package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"

	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

// Bench7Report is the machine-readable record behind BENCH_7.json: the
// matcher comparison on the id-less HTML corpus. For SFTM and
// BULD-without-IDs it records match precision/recall against the
// change simulator's ground-truth correspondences, the resulting delta
// sizes relative to the perfect delta, diff time, and whether every
// SFTM delta survived the Apply round trip. The regression gate
// (scripts/benchdiff.sh) holds SFTM to beating BULD on the corpus it
// was built for.
type Bench7Report struct {
	Schema     int    `json:"schema"`
	Mode       string `json:"mode"` // "quick" or "full"
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"numCPU"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`

	// CorpusChurn is the mutation probability of the headline corpus —
	// the churn level the Wins verdict and the match-quality smoke in
	// `make check` are stated at.
	CorpusChurn float64 `json:"corpusChurn"`

	// Quality holds one row per matcher and churn level.
	Quality []MatchQualityEntry `json:"quality"`

	// Entries records diff time per matcher on the headline corpus.
	Entries []BenchEntry `json:"entries"`

	// RoundTrips is true when every SFTM delta in the run applied back
	// onto the old document and reproduced the new one exactly.
	RoundTrips bool `json:"roundTrips"`
	// Wins is true when SFTM beat BULD-without-IDs on both precision
	// and recall at the headline churn level.
	Wins bool `json:"wins"`
}

// MatchQualityEntry is one matcher's score at one churn level,
// averaged over the corpus seeds.
type MatchQualityEntry struct {
	Matcher   string  `json:"matcher"`
	Churn     float64 `json:"churn"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	// DeltaBytes is the total computed delta size over the corpus;
	// PerfectBytes the ground-truth delta size for the same pairs.
	DeltaBytes   int `json:"deltaBytes"`
	PerfectBytes int `json:"perfectBytes"`
}

// bench7Churns are the mutation levels swept; bench7CorpusChurn is the
// headline level the verdicts are stated at.
var bench7Churns = []float64{0.08, 0.12, 0.18, 0.25}

const bench7CorpusChurn = 0.12

// Bench7 measures the matcher-comparison report. Quick mode uses fewer
// corpus seeds and smaller pages (a couple of seconds total) and is
// what scripts/check.sh runs; the committed baseline is generated
// without quick.
func Bench7(quick bool, seed int64) (*Bench7Report, error) {
	r := &Bench7Report{
		Schema:      1,
		Mode:        "full",
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Seed:        seed,
		CorpusChurn: bench7CorpusChurn,
		RoundTrips:  true,
	}
	seeds, sections, reps := int64(8), 12, 5
	if quick {
		r.Mode = "quick"
		seeds, sections, reps = 5, 6, 2
	}

	matchers := []struct {
		name string
		opts diff.Options
	}{
		{"sftm", diff.Options{Matcher: diff.MatcherSFTM}},
		{"buld", diff.Options{DisableIDAttributes: true}},
	}

	for _, churn := range bench7Churns {
		for _, m := range matchers {
			entry := MatchQualityEntry{Matcher: m.name, Churn: churn}
			var precision, recall float64
			for s := int64(0); s < seeds; s++ {
				doc := changesim.HTMLPage(rand.New(rand.NewSource(seed+s)), sections)
				sim, err := changesim.SimulateHTML(doc, changesim.UniformHTML(churn, (seed+s)*17))
				if err != nil {
					return nil, err
				}
				pairs, err := diff.Matching(doc, sim.New, m.opts)
				if err != nil {
					return nil, err
				}
				correct := 0
				for o, n := range pairs {
					if sim.Pairs[o] == n {
						correct++
					}
				}
				if len(pairs) > 0 {
					precision += float64(correct) / float64(len(pairs))
				}
				recall += float64(correct) / float64(len(sim.Pairs))

				d, err := diff.Diff(doc.Clone(), sim.New.Clone(), m.opts)
				if err != nil {
					return nil, err
				}
				dXML, err := d.MarshalText()
				if err != nil {
					return nil, err
				}
				entry.DeltaBytes += len(dXML)
				entry.PerfectBytes += sim.Perfect.Size()
				if m.name == "sftm" {
					if err := bench7RoundTrip(doc, sim.New, string(dXML)); err != nil {
						r.RoundTrips = false
					}
				}
			}
			entry.Precision = precision / float64(seeds)
			entry.Recall = recall / float64(seeds)
			r.Quality = append(r.Quality, entry)
		}
	}

	// The headline verdict: at the corpus churn level SFTM must beat
	// BULD-without-IDs on both axes.
	var sftmQ, buldQ MatchQualityEntry
	for _, q := range r.Quality {
		if q.Churn == bench7CorpusChurn {
			if q.Matcher == "sftm" {
				sftmQ = q
			} else {
				buldQ = q
			}
		}
	}
	r.Wins = sftmQ.Precision > buldQ.Precision && sftmQ.Recall > buldQ.Recall

	// Diff time per matcher on one headline-churn pair.
	timeDoc := changesim.HTMLPage(rand.New(rand.NewSource(seed)), sections*4)
	timeSim, err := changesim.SimulateHTML(timeDoc, changesim.UniformHTML(bench7CorpusChurn, seed*17))
	if err != nil {
		return nil, err
	}
	for _, m := range matchers {
		var diffErr error
		ns, bytesOp, allocs := measure(reps, func() {
			if _, err2 := diff.Diff(timeDoc.Clone(), timeSim.New.Clone(), m.opts); err2 != nil {
				diffErr = err2
			}
		})
		if diffErr != nil {
			return nil, diffErr
		}
		r.Entries = append(r.Entries, BenchEntry{
			Name:        "html/" + m.name,
			NsPerOp:     ns,
			BytesPerOp:  bytesOp,
			AllocsPerOp: allocs,
		})
	}

	// The timing pair is four times the corpus page size; its SFTM
	// delta must survive the Apply round trip too.
	d, err := diff.Diff(timeDoc.Clone(), timeSim.New.Clone(), diff.Options{Matcher: diff.MatcherSFTM})
	if err != nil {
		return nil, err
	}
	dXML, err := d.MarshalText()
	if err != nil {
		return nil, err
	}
	if err := bench7RoundTrip(timeDoc, timeSim.New, string(dXML)); err != nil {
		r.RoundTrips = false
	}
	return r, nil
}

// bench7RoundTrip re-parses the delta XML and applies it onto a clone
// of oldDoc, demanding the exact new document back — the full
// serialize/parse/apply loop a stored delta must survive.
func bench7RoundTrip(oldDoc, newDoc *dom.Node, deltaXML string) error {
	d, err := delta.ParseString(deltaXML)
	if err != nil {
		return fmt.Errorf("bench7: reparsing delta: %w", err)
	}
	got, err := delta.ApplyClone(oldDoc, d)
	if err != nil {
		return fmt.Errorf("bench7: applying delta: %w", err)
	}
	if !dom.Equal(got, newDoc) {
		return fmt.Errorf("bench7: delta does not reproduce the new document: %s", dom.Diagnose(got, newDoc))
	}
	return nil
}

// WriteJSON serializes the report.
func (r *Bench7Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadBench7 parses a report written by WriteJSON.
func ReadBench7(r io.Reader) (*Bench7Report, error) {
	var out Bench7Report
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("bench: parsing bench7 report: %w", err)
	}
	return &out, nil
}

// Compare checks a fresh report against a committed baseline and
// returns one message per violated gate. The hard invariants (Apply
// round trips, SFTM beating BULD at the corpus churn) are absolute;
// times may grow 3x, and precision/recall may drop at most 0.03 below
// the baseline at each swept churn level.
func (r *Bench7Report) Compare(baseline *Bench7Report) []string {
	var bad []string
	if !r.RoundTrips {
		bad = append(bad, "an sftm delta failed the Apply round trip")
	}
	if !r.Wins {
		bad = append(bad, fmt.Sprintf("sftm does not beat buld-without-ids at churn %.2f", r.CorpusChurn))
	}
	base := map[string]BenchEntry{}
	for _, e := range baseline.Entries {
		base[e.Name] = e
	}
	for _, e := range r.Entries {
		if b, ok := base[e.Name]; ok && b.NsPerOp > 0 && e.NsPerOp > 3*b.NsPerOp {
			bad = append(bad, fmt.Sprintf("%s: time %dns/op > 3x baseline %dns/op", e.Name, e.NsPerOp, b.NsPerOp))
		}
	}
	baseQ := map[string]MatchQualityEntry{}
	for _, q := range baseline.Quality {
		baseQ[fmt.Sprintf("%s@%.2f", q.Matcher, q.Churn)] = q
	}
	for _, q := range r.Quality {
		b, ok := baseQ[fmt.Sprintf("%s@%.2f", q.Matcher, q.Churn)]
		if !ok {
			continue
		}
		if q.Precision < b.Precision-0.03 {
			bad = append(bad, fmt.Sprintf("%s@%.2f: precision %.3f more than 0.03 below baseline %.3f", q.Matcher, q.Churn, q.Precision, b.Precision))
		}
		if q.Recall < b.Recall-0.03 {
			bad = append(bad, fmt.Sprintf("%s@%.2f: recall %.3f more than 0.03 below baseline %.3f", q.Matcher, q.Churn, q.Recall, b.Recall))
		}
	}
	return bad
}

// PrintBench7 renders the report for humans (the JSON goes to -json).
func PrintBench7(w io.Writer, r *Bench7Report) {
	fmt.Fprintf(w, "# BENCH_7 (%s mode, %s %s/%s, %d CPU)\n", r.Mode, r.GoVersion, r.GOOS, r.GOARCH, r.NumCPU)
	fmt.Fprintf(w, "%-14s %6s %10s %8s %12s %14s\n", "matcher", "churn", "precision", "recall", "delta(B)", "perfect(B)")
	for _, q := range r.Quality {
		fmt.Fprintf(w, "%-14s %6.2f %10.3f %8.3f %12d %14d\n", q.Matcher, q.Churn, q.Precision, q.Recall, q.DeltaBytes, q.PerfectBytes)
	}
	fmt.Fprintf(w, "%-24s %14s %14s %12s\n", "workload", "ns/op", "B/op", "allocs/op")
	for _, e := range r.Entries {
		fmt.Fprintf(w, "%-24s %14d %14d %12d\n", e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}
	fmt.Fprintf(w, "apply round trips: %v\n", r.RoundTrips)
	fmt.Fprintf(w, "sftm beats buld at churn %.2f: %v\n", r.CorpusChurn, r.Wins)
}
