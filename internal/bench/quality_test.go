package bench

// TestQualityPinned pins the repository's count-like quality numbers:
// the Figure 5 ratios, the matcher sweep on the id-less HTML corpus and
// the optimality record against optdelta's proven optimum. Each is a
// pure function of its seed, so any difference from the committed
// testdata/quality.json is a real change in what the matchers compute.
// After an intended change, regenerate the file with:
//
//	go test ./internal/bench -run TestQualityPinned -update

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/optdelta"
)

var update = flag.Bool("update", false, "rewrite testdata/quality.json")

var qualityPath = filepath.Join("testdata", "quality.json")

// quality is the record in testdata/quality.json. It holds no host
// facts: every number repeats exactly for its seed.
type quality struct {
	Seed       int64        `json:"seed"`
	Fig5       []fig5Ratio  `json:"fig5"`
	Matchers   matcherSweep `json:"matchers"`
	Optimality optimality   `json:"optimality"`
}

// fig5Ratio is a computed/perfect delta-size ratio at one Figure 5
// change rate.
type fig5Ratio struct {
	Name  string  `json:"name"`
	Ratio float64 `json:"ratio"`
}

// matcherSweep compares SFTM with BULD-without-IDs on changesim's
// id-less HTML pages at several churn levels.
type matcherSweep struct {
	// CorpusChurn is the churn level the Wins verdict is stated at.
	CorpusChurn float64    `json:"corpusChurn"`
	Quality     []matchRow `json:"quality"`
	// RoundTrips is true when every SFTM delta of the sweep, and of one
	// page four times the sweep's size, survived MarshalText, ParseBytes
	// and Apply back to the new document.
	RoundTrips bool `json:"roundTrips"`
	// Wins is true when SFTM beat BULD-without-IDs on both precision
	// and recall at CorpusChurn.
	Wins bool `json:"wins"`
}

// matchRow is one matcher's score at one churn level: precision and
// recall against the simulator's ground-truth pairs, averaged over the
// corpus seeds, and total delta bytes beside the perfect delta's.
type matchRow struct {
	Matcher      string  `json:"matcher"`
	Churn        float64 `json:"churn"`
	Precision    float64 `json:"precision"`
	Recall       float64 `json:"recall"`
	DeltaBytes   int     `json:"deltaBytes"`
	PerfectBytes int     `json:"perfectBytes"`
}

// optimality costs each delta source against the exact minimum that
// optdelta proves on generated small-tree pairs.
type optimality struct {
	MaxNodes  int     `json:"maxNodes"`
	MaxStates int64   `json:"maxStates"`
	Churn     float64 `json:"churn"`
	// Pairs have a completed proof and are the denominator of Ratios.
	// Generated counts every attempt; Inexact the proofs abandoned at the
	// state budget; SkippedLarge the pairs that outgrew MaxNodes;
	// SkippedNoChange the pairs the simulator left unchanged.
	Pairs           int          `json:"pairs"`
	Generated       int          `json:"generated"`
	Inexact         int          `json:"inexact"`
	SkippedLarge    int          `json:"skippedLarge"`
	SkippedNoChange int          `json:"skippedNoChange"`
	StatesTotal     int64        `json:"statesTotal"`
	Ratios          []ratioStats `json:"ratios"`
	// Sound is true when no computed delta cost less than the proven
	// optimum, the invariant that makes the ratios mean anything.
	Sound bool `json:"sound"`
}

// ratioStats is one delta source's cost/optimum distribution. Matcher
// is "buld", "sftm" or "perfect" (changesim's scripted delta).
type ratioStats struct {
	Matcher     string  `json:"matcher"`
	Mean        float64 `json:"mean"`
	P50         float64 `json:"p50"`
	P90         float64 `json:"p90"`
	Max         float64 `json:"max"`
	OptimalHits int     `json:"optimalHits"`
}

func TestQualityPinned(t *testing.T) {
	got, err := measureQuality(1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Optimality.Sound {
		t.Error("a computed delta cost less than the proven optimum (oracle or cost-model bug)")
	}
	if !got.Matchers.RoundTrips {
		t.Error("an sftm delta failed the MarshalText/ParseBytes/Apply round trip")
	}
	if !got.Matchers.Wins {
		t.Errorf("sftm no longer beats buld-without-ids on precision and recall at churn %.2f", got.Matchers.CorpusChurn)
	}
	if *update {
		if t.Failed() {
			t.Fatalf("not rewriting %s while an absolute clause fails", qualityPath)
		}
		out, err := encodeQuality(got)
		if err == nil {
			err = os.WriteFile(qualityPath, out, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readQuality(qualityPath)
	if err != nil {
		t.Fatal(err)
	}
	if msgs := compareQuality(want, got); len(msgs) > 0 {
		t.Errorf("quality differs from %s (intended? regenerate with -update):\n  %s",
			qualityPath, strings.Join(msgs, "\n  "))
	}
}

// TestQualityReport feeds the comparison edited copies of the committed
// file and checks that it names every moved number with its direction.
func TestQualityReport(t *testing.T) {
	// Each wanted line is given by its start and its end. The numbers
	// are left out so that -update never has to edit this table.
	cases := []struct {
		name string
		edit func(q *quality)
		want [][2]string
	}{
		{"unchanged", func(*quality) {}, nil},
		{
			"one worse, one better",
			func(q *quality) {
				q.Matchers.Quality[2].Precision -= 0.01
				q.Optimality.Ratios[0].Mean -= 0.1
			},
			[][2]string{
				{"matchers sftm@0.12 precision: ", "(worse)"},
				{"optimality buld mean: ", "(better)"},
			},
		},
		{
			"lower is better for bytes",
			func(q *quality) { q.Matchers.Quality[1].DeltaBytes++ },
			[][2]string{{"matchers buld@0.08 deltaBytes: ", "(worse)"}},
		},
		{
			"a parameter has no direction",
			func(q *quality) { q.Optimality.MaxStates /= 2 },
			[][2]string{{"optimality maxStates: ", "(changed)"}},
		},
		{
			"an absolute clause is a number too",
			func(q *quality) { q.Optimality.Sound = false },
			[][2]string{{"optimality sound: 1 → 0", "(worse)"}},
		},
		{
			"a row not measured",
			func(q *quality) { q.Fig5 = q.Fig5[:1] },
			[][2]string{{"fig5/rate-0.20 ratio: ", "in the file, not measured"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := readQuality(qualityPath)
			if err != nil {
				t.Fatal(err)
			}
			got, err := readQuality(qualityPath)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(&got)
			msgs := compareQuality(want, got)
			if len(msgs) != len(tc.want) {
				t.Fatalf("report has %d lines, want %d:\n%s", len(msgs), len(tc.want), strings.Join(msgs, "\n"))
			}
			for i, w := range tc.want {
				if !strings.HasPrefix(msgs[i], w[0]) || !strings.HasSuffix(msgs[i], w[1]) {
					t.Errorf("line %d = %q, want %q…%q", i, msgs[i], w[0], w[1])
				}
			}
		})
	}
}

// TestQualityFileRoundTrips: what -update writes for the committed
// record is the committed file, byte for byte.
func TestQualityFileRoundTrips(t *testing.T) {
	raw, err := os.ReadFile(qualityPath)
	if err != nil {
		t.Fatal(err)
	}
	q, err := readQuality(qualityPath)
	if err != nil {
		t.Fatal(err)
	}
	out, err := encodeQuality(q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, raw) {
		t.Errorf("re-encoding %s changed it:\n%s", qualityPath, out)
	}
}

func readQuality(path string) (quality, error) {
	var q quality
	raw, err := os.ReadFile(path)
	if err != nil {
		return q, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		return q, fmt.Errorf("parsing %s: %w", path, err)
	}
	return q, nil
}

func encodeQuality(q quality) ([]byte, error) {
	out, err := json.MarshalIndent(q, "", "  ")
	return append(out, '\n'), err
}

// metric is one number of the record, named for the report. Better is
// +1 when higher is better, -1 when lower is, and 0 for a parameter of
// the run, which has no direction.
type metric struct {
	name   string
	value  float64
	better int
}

func (q quality) metrics() []metric {
	verdict := func(name string, b bool) metric {
		m := metric{name, 0, +1}
		if b {
			m.value = 1
		}
		return m
	}
	m := []metric{{"seed", float64(q.Seed), 0}}
	for _, r := range q.Fig5 {
		m = append(m, metric{r.Name + " ratio", r.Ratio, -1})
	}
	s := q.Matchers
	m = append(m, metric{"matchers corpusChurn", s.CorpusChurn, 0})
	for _, r := range s.Quality {
		k := fmt.Sprintf("matchers %s@%.2f ", r.Matcher, r.Churn)
		m = append(m,
			metric{k + "precision", r.Precision, +1},
			metric{k + "recall", r.Recall, +1},
			metric{k + "deltaBytes", float64(r.DeltaBytes), -1},
			metric{k + "perfectBytes", float64(r.PerfectBytes), 0})
	}
	m = append(m, verdict("matchers roundTrips", s.RoundTrips), verdict("matchers wins", s.Wins))
	o := q.Optimality
	m = append(m,
		metric{"optimality maxNodes", float64(o.MaxNodes), 0},
		metric{"optimality maxStates", float64(o.MaxStates), 0},
		metric{"optimality churn", o.Churn, 0},
		metric{"optimality pairs", float64(o.Pairs), +1},
		metric{"optimality generated", float64(o.Generated), 0},
		metric{"optimality inexact", float64(o.Inexact), -1},
		metric{"optimality skippedLarge", float64(o.SkippedLarge), 0},
		metric{"optimality skippedNoChange", float64(o.SkippedNoChange), 0},
		metric{"optimality statesTotal", float64(o.StatesTotal), -1})
	for _, r := range o.Ratios {
		k := "optimality " + r.Matcher + " "
		m = append(m,
			metric{k + "mean", r.Mean, -1},
			metric{k + "p50", r.P50, -1},
			metric{k + "p90", r.P90, -1},
			metric{k + "max", r.Max, -1},
			metric{k + "optimalHits", float64(r.OptimalHits), +1})
	}
	return append(m, verdict("optimality sound", o.Sound))
}

// compareQuality returns one line per number that differs between the
// committed record and a fresh one, labelled better, worse or changed.
func compareQuality(want, got quality) []string {
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	fresh := map[string]float64{}
	for _, m := range got.metrics() {
		fresh[m.name] = m.value
	}
	var msgs []string
	for _, w := range want.metrics() {
		g, ok := fresh[w.name]
		delete(fresh, w.name)
		switch {
		case !ok:
			msgs = append(msgs, w.name+": in the file, not measured")
		case g != w.value:
			verdict := "changed"
			if w.better != 0 {
				verdict = "worse"
				if (g > w.value) == (w.better > 0) {
					verdict = "better"
				}
			}
			msgs = append(msgs, fmt.Sprintf("%s: %s → %s (%s)", w.name, num(w.value), num(g), verdict))
		}
	}
	var extra []string
	for name := range fresh {
		extra = append(extra, name+": measured, not in the file")
	}
	sort.Strings(extra)
	return append(msgs, extra...)
}

func measureQuality(seed int64) (quality, error) {
	q := quality{Seed: seed}
	points, err := Fig5(50_000, []float64{0.05, 0.20}, seed)
	if err != nil {
		return q, err
	}
	for _, p := range points {
		q.Fig5 = append(q.Fig5, fig5Ratio{fmt.Sprintf("fig5/rate-%.2f", p.ChangeRate), p.Ratio})
	}
	if q.Matchers, err = sweepMatchers(seed); err != nil {
		return q, err
	}
	q.Optimality, err = proveOptimality(seed)
	return q, err
}

// sweepMatchers scores both matchers on eight 12-section pages per
// churn level.
func sweepMatchers(seed int64) (matcherSweep, error) {
	const seeds, sections, corpusChurn = 8, 12, 0.12
	s := matcherSweep{CorpusChurn: corpusChurn, RoundTrips: true}
	matchers := []struct {
		name string
		opts diff.Options
	}{
		{"sftm", diff.Options{Matcher: diff.MatcherSFTM}},
		{"buld", diff.Options{DisableIDAttributes: true}},
	}
	// roundTrip diffs one pair, requires its SFTM delta to survive its
	// own XML and returns the delta's length.
	roundTrip := func(doc, newDoc *dom.Node, opts diff.Options) (int, error) {
		d, err := diff.Diff(doc.Clone(), newDoc.Clone(), opts)
		if err != nil {
			return 0, err
		}
		dXML, err := d.MarshalText()
		if err != nil {
			return 0, err
		}
		if opts.Matcher == diff.MatcherSFTM {
			back, err := delta.ParseBytes(dXML)
			if err != nil {
				s.RoundTrips = false
				return len(dXML), nil
			}
			got, err := delta.ApplyClone(doc, back)
			if err != nil || !dom.Equal(got, newDoc) {
				s.RoundTrips = false
			}
		}
		return len(dXML), nil
	}
	for _, churn := range []float64{0.08, corpusChurn, 0.18, 0.25} {
		for _, m := range matchers {
			row := matchRow{Matcher: m.name, Churn: churn}
			for i := int64(0); i < seeds; i++ {
				doc := changesim.HTMLPage(rand.New(rand.NewSource(seed+i)), sections)
				sim, err := changesim.SimulateHTML(doc, changesim.UniformHTML(churn, (seed+i)*17))
				if err != nil {
					return s, err
				}
				pairs, err := diff.Matching(doc, sim.New, m.opts)
				if err != nil {
					return s, err
				}
				correct := 0
				for o, n := range pairs {
					if sim.Pairs[o] == n {
						correct++
					}
				}
				if len(pairs) > 0 {
					row.Precision += float64(correct) / float64(len(pairs))
				}
				row.Recall += float64(correct) / float64(len(sim.Pairs))
				n, err := roundTrip(doc, sim.New, m.opts)
				if err != nil {
					return s, err
				}
				row.DeltaBytes += n
				row.PerfectBytes += sim.Perfect.Size()
			}
			row.Precision /= seeds
			row.Recall /= seeds
			s.Quality = append(s.Quality, row)
		}
	}
	var sftmRow, buldRow matchRow
	for _, r := range s.Quality {
		if r.Churn == corpusChurn {
			if r.Matcher == "sftm" {
				sftmRow = r
			} else {
				buldRow = r
			}
		}
	}
	s.Wins = sftmRow.Precision > buldRow.Precision && sftmRow.Recall > buldRow.Recall

	// One page four times the sweep's size must round-trip too.
	doc := changesim.HTMLPage(rand.New(rand.NewSource(seed)), sections*4)
	sim, err := changesim.SimulateHTML(doc, changesim.UniformHTML(corpusChurn, seed*17))
	if err != nil {
		return s, err
	}
	_, err = roundTrip(doc, sim.New, matchers[0].opts)
	return s, err
}

// proveOptimality costs BULD, SFTM and changesim's perfect delta
// against the proven optimum on 200 generated pairs of at most
// optdelta.DefaultMaxNodes nodes.
func proveOptimality(seed int64) (optimality, error) {
	const target, churn = 200, 0.15
	o := optimality{
		MaxNodes:  optdelta.DefaultMaxNodes,
		MaxStates: optdelta.DefaultMaxStates,
		Churn:     churn,
		Sound:     true,
	}
	sources := []string{"buld", "sftm", "perfect"}
	ratios := map[string][]float64{}
	hits := map[string]int{}
	for attempt := int64(0); o.Pairs < target && attempt < target*6; attempt++ {
		o.Generated++
		rng := rand.New(rand.NewSource(seed + attempt*101))
		oldDoc := changesim.Generic(rng, 8+rng.Intn(14), 3, 5)
		sim, err := changesim.Simulate(oldDoc, changesim.Uniform(churn, seed*31+attempt))
		if err != nil {
			return o, err
		}
		if oldDoc.Size()-1 > o.MaxNodes || sim.New.Size()-1 > o.MaxNodes {
			o.SkippedLarge++
			continue
		}
		if dom.Equal(oldDoc, sim.New) {
			o.SkippedNoChange++
			continue
		}
		costs := map[string]int{"perfect": optdelta.ScriptCost(sim.Perfect)}
		for _, m := range []struct {
			name string
			opts diff.Options
		}{{"buld", diff.Options{}}, {"sftm", diff.Options{Matcher: diff.MatcherSFTM}}} {
			d, err := diff.Diff(oldDoc.Clone(), sim.New.Clone(), m.opts)
			if err != nil {
				return o, err
			}
			costs[m.name] = optdelta.ScriptCost(d)
		}
		ub := costs["buld"]
		for _, c := range costs {
			ub = min(ub, c)
		}
		res, err := optdelta.Optimal(oldDoc, sim.New, optdelta.Options{
			MaxNodes: o.MaxNodes, MaxStates: o.MaxStates, UpperBound: ub,
		})
		if err != nil {
			return o, err
		}
		o.StatesTotal += res.States
		if !res.Exact {
			o.Inexact++
			continue
		}
		if res.Cost < 1 {
			// Unequal trees need at least one operation; a cheaper
			// "proof" would be an oracle bug.
			o.Sound = false
			continue
		}
		o.Pairs++
		for _, src := range sources {
			if costs[src] < res.Cost {
				o.Sound = false
			}
			if costs[src] == res.Cost {
				hits[src]++
			}
			ratios[src] = append(ratios[src], float64(costs[src])/float64(res.Cost))
		}
	}
	for _, src := range sources {
		o.Ratios = append(o.Ratios, summarize(src, ratios[src], hits[src]))
	}
	return o, nil
}

func summarize(name string, vals []float64, hits int) ratioStats {
	out := ratioStats{Matcher: name, OptimalHits: hits}
	if len(vals) == 0 {
		return out
	}
	sorted := append([]float64{}, vals...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	out.Mean = sum / float64(len(sorted))
	out.P50 = sorted[len(sorted)/2]
	out.P90 = sorted[len(sorted)*9/10]
	out.Max = sorted[len(sorted)-1]
	return out
}
