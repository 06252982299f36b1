package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"xydiff/internal/changesim"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

// nominalSeconds is the --seconds value the round counts below are
// sized for: K timed passes of one script fill about two thirds of it
// on the 2-vCPU host the sizes were probed on, the rest is head-room
// for the per-pass time box. Other values scale the rounds linearly.
const nominalSeconds = 30

// subscription is the JSON body of POST /subscriptions.
type subscription struct {
	ID    string   `json:"id"`
	Path  string   `json:"path,omitempty"`
	Query string   `json:"query,omitempty"`
	Kinds []string `json:"kinds,omitempty"`
}

// workload describes one traffic mix. Every script is rounds of "every
// document gets its next version, interleaved with reads of random
// already-stored versions".
type workload struct {
	name string
	// docs documents, each PUT once per round after 1+preload versions
	// stored during set-up.
	docs, rounds, preload int
	// getVersions and getRanges are reads per round, spread evenly
	// between the round's PUTs.
	getVersions, getRanges int
	// cache is the daemon's -version-cache (0 = its default, 4096).
	cache int
	// matcher is sent as ?matcher= on every PUT ("" = the BULD default).
	matcher diff.Matcher
	// zipf > 1 picks read documents Zipf(s)-distributed, else uniformly.
	zipf float64
	base func(rng *rand.Rand) *dom.Node
	// next mutates doc into its successor and returns it with the size
	// of changesim's perfect delta.
	next func(doc *dom.Node, seed int64) (*dom.Node, int, error)
	subs []subscription
}

func xmlChurn(p float64) func(*dom.Node, int64) (*dom.Node, int, error) {
	return func(doc *dom.Node, seed int64) (*dom.Node, int, error) {
		res, err := changesim.Simulate(doc, changesim.Uniform(p, seed))
		if err != nil {
			return nil, 0, err
		}
		size := res.Perfect.Size()
		singleText(res.New)
		return res.New, size, nil
	}
}

// singleText drops every text child after an element's first. The
// simulator grows elements like <Price>text<x/>text</Price>; when the
// differ deletes such an element while moving <x/> elsewhere, the
// pruned subtree it records has two adjacent text nodes, its delta-XML
// parses back as one, and the stored chain no longer replays (500 on
// every cache miss and after a restart). The workloads must not fail,
// so the corpus stays clear of that defect; about 15 of the 2400 ops of
// an ingest_large perfect delta insert such a text.
func singleText(doc *dom.Node) {
	dom.WalkPre(doc, func(n *dom.Node) bool {
		seen := false
		for i := 0; i < len(n.Children); i++ {
			if n.Children[i].Type != dom.Text {
				continue
			}
			if seen {
				n.RemoveAt(i)
				i--
			}
			seen = true
		}
		return true
	})
}

func htmlChurn(p float64) func(*dom.Node, int64) (*dom.Node, int, error) {
	return func(doc *dom.Node, seed int64) (*dom.Node, int, error) {
		res, err := changesim.SimulateHTML(doc, changesim.UniformHTML(p, seed))
		if err != nil {
			return nil, 0, err
		}
		return res.New, res.Perfect.Size(), nil
	}
}

// subsFor returns a workload's eight subscriptions: the four kind
// filters, two path filters and two XPath queries shaped for its
// corpus. The alerter evaluates a query with a full Select per delta
// op, O(ops × nodes): an unrestricted //Product[Price>500] costs 11 s
// on one ingest_large PUT. So the queries are limited to op kinds or
// rooted paths on which they cost about what the other six do.
func subsFor(paths [2]string, queries [2]subscription) []subscription {
	subs := []subscription{
		{ID: "k-insert", Kinds: []string{"insert"}},
		{ID: "k-delete", Kinds: []string{"delete"}},
		{ID: "k-update", Kinds: []string{"update"}},
		{ID: "k-move", Kinds: []string{"move"}},
	}
	for i, p := range paths {
		subs = append(subs, subscription{ID: fmt.Sprintf("p-%d", i), Path: p})
	}
	for i, q := range queries {
		q.ID = fmt.Sprintf("q-%d", i)
		subs = append(subs, q)
	}
	return subs
}

var catalogSubs = subsFor(
	[2]string{"Category/Product", "Product/Price"},
	[2]subscription{
		{Query: "//Product[Price>500]", Kinds: []string{"update-attribute"}},
		{Query: "//Product[@status='sale']", Kinds: []string{"insert-attribute"}},
	})

// workloads are the three traffic mixes of BENCHMARK.json, at
// nominalSeconds.
func workloads() []*workload {
	return []*workload{
		{
			name: "ingest_large", docs: 12, rounds: 10,
			getVersions: 12, getRanges: 12,
			base: func(rng *rand.Rand) *dom.Node { return changesim.CatalogOfSize(rng, 130000) },
			next: xmlChurn(0.10), subs: catalogSubs,
		},
		{
			name: "ingest_html", docs: 64, rounds: 5,
			getVersions: 20, getRanges: 20,
			matcher: diff.MatcherSFTM,
			base:    func(rng *rand.Rand) *dom.Node { return changesim.HTMLPage(rng, 40) },
			next:    htmlChurn(0.12),
			subs: subsFor(
				[2]string{"ul/li", "div/h2"},
				[2]subscription{
					{Query: "/html/head/title"},
					{Query: "/html/body/main/div/h2", Kinds: []string{"update"}},
				}),
		},
		{
			name: "history_mix", docs: 128, rounds: 3, preload: 6,
			getVersions: 384, getRanges: 384,
			cache: 32, zipf: 1.1,
			base: func(rng *rand.Rand) *dom.Node { return changesim.CatalogOfSize(rng, 6000) },
			next: xmlChurn(0.05), subs: catalogSubs,
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled returns w with its rounds scaled from nominalSeconds to
// seconds (at least one round).
func (w *workload) scaled(seconds float64) *workload {
	c := *w
	c.rounds = int(math.Round(float64(w.rounds) * seconds / nominalSeconds))
	if c.rounds < 1 {
		c.rounds = 1
	}
	return &c
}

type opKind uint8

const (
	opPut opKind = iota
	opGetVersion
	opGetRange
	numKinds
)

var kindNames = [numKinds]string{"put", "get_version", "get_range"}

// op is one scripted request: PUT version a of doc, GET version a, or
// GET the aggregated delta a..b.
type op struct {
	kind opKind
	doc  int
	a, b int
}

// corpus is everything a run sends, generated from the seed before any
// daemon starts: the daemon only ever sees these bytes.
type corpus struct {
	w   *workload
	ids []string
	// bodies[d][v-1] is version v of document d in canonical
	// serialization; perfect[d][v-1] the size of changesim's perfect
	// delta from version v-1 (0 for the first).
	bodies  [][][]byte
	perfect [][]int
	script  []op
	nodes   float64 // mean nodes per document version
	genTime time.Duration
}

func newCorpus(w *workload, seed int64) (*corpus, error) {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{w: w}
	versions := 1 + w.preload + w.rounds
	var nodes, count int
	for d := 0; d < w.docs; d++ {
		c.ids = append(c.ids, fmt.Sprintf("%s-%03d", w.name, d))
		doc := w.base(rng)
		bodies := make([][]byte, 0, versions)
		perfect := make([]int, 0, versions)
		size := 0
		for v := 1; v <= versions; v++ {
			if v > 1 {
				var err error
				if doc, size, err = w.next(doc, rng.Int63()); err != nil {
					return nil, fmt.Errorf("corpus %s doc %d version %d: %w", w.name, d, v, err)
				}
			}
			var buf bytes.Buffer
			if _, err := doc.WriteTo(&buf); err != nil {
				return nil, fmt.Errorf("corpus %s doc %d version %d: %w", w.name, d, v, err)
			}
			bodies = append(bodies, buf.Bytes())
			perfect = append(perfect, size)
			nodes += doc.Size()
			count++
		}
		c.bodies = append(c.bodies, bodies)
		c.perfect = append(c.perfect, perfect)
	}
	c.nodes = float64(nodes) / float64(count)
	c.script = newScript(w, rand.New(rand.NewSource(seed^0x5bd1e995)))
	c.genTime = time.Since(start)
	return c, nil
}

// newScript lays out the timed ops. Reads only name versions that a
// preceding op of the same script (or the set-up) has stored, so no
// scripted op can fail on a correct daemon.
//
// The seed picks which documents are read; which versions is a fixed
// low-discrepancy sequence. A read's cost grows with its distance from
// the latest version, so drawing the distances at random would make
// the read metrics differ between seeds for reasons that have nothing
// to do with the program.
func newScript(w *workload, rng *rand.Rand) []op {
	stored := make([]int, w.docs)
	for d := range stored {
		stored[d] = 1 + w.preload
	}
	var zipf *rand.Zipf
	if w.zipf > 1 {
		zipf = rand.NewZipf(rng, w.zipf, 1, uint64(w.docs-1))
	}
	pick := func(min int) int {
		for {
			d := rng.Intn(w.docs)
			if zipf != nil {
				d = int(zipf.Uint64())
			}
			if stored[d] >= min {
				return d
			}
		}
	}
	// frac(i·φ⁻¹) for single draws, the R2 sequence for pairs.
	spread := func(i int, alpha float64) float64 {
		_, f := math.Modf(float64(i) * alpha)
		return f
	}
	var script []op
	var dueV, dueR float64
	var nV, nR int
	for r := 0; r < w.rounds; r++ {
		for d := 0; d < w.docs; d++ {
			stored[d]++
			script = append(script, op{kind: opPut, doc: d, a: stored[d]})
			dueV += float64(w.getVersions) / float64(w.docs)
			dueR += float64(w.getRanges) / float64(w.docs)
			for ; dueV >= 1; dueV-- {
				rd := pick(1)
				// The latest version one time in four (a cache hit plus
				// a clone), else a past version.
				v := stored[rd]
				if nV%4 != 0 {
					v = 1 + int(spread(nV, 0.6180339887498949)*float64(stored[rd]))
				}
				nV++
				script = append(script, op{kind: opGetVersion, doc: rd, a: v})
			}
			for ; dueR >= 1; dueR-- {
				rd := pick(2)
				a := 1 + int(spread(nR, 0.7548776662466927)*float64(stored[rd]))
				b := 1 + int(spread(nR, 0.5698402909980532)*float64(stored[rd]-1))
				if b >= a {
					b++
				}
				nR++
				script = append(script, op{kind: opGetRange, doc: rd, a: a, b: b})
			}
		}
	}
	return script
}
