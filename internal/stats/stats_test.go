package stats

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

func observePair(t *testing.T, c *Collector, oldXML, newXML string) {
	t.Helper()
	oldDoc, err := dom.ParseString(oldXML)
	if err != nil {
		t.Fatal(err)
	}
	newDoc, err := dom.ParseString(newXML)
	if err != nil {
		t.Fatal(err)
	}
	d, err := diff.Diff(oldDoc, newDoc, diff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(oldDoc, newDoc, d)
}

func TestCollectorLearnsHotLabels(t *testing.T) {
	// Prices change, descriptions do not: the price label must come out
	// with the higher change rate — the paper's exact example.
	c := NewCollector()
	observePair(t, c,
		`<cat><p><price>1</price><desc>stable</desc></p><p><price>2</price><desc>stable too</desc></p></cat>`,
		`<cat><p><price>9</price><desc>stable</desc></p><p><price>8</price><desc>stable too</desc></p></cat>`)
	r := c.Report()
	if r.Versions != 1 {
		t.Fatalf("versions = %d", r.Versions)
	}
	rates := map[string]float64{}
	for _, l := range r.Labels {
		rates[l.Label] = l.Rate()
	}
	if rates["price"] <= rates["desc"] {
		t.Errorf("price rate %f should exceed desc rate %f", rates["price"], rates["desc"])
	}
	if r.Labels[0].Label != "price" {
		t.Errorf("hottest label = %q", r.Labels[0].Label)
	}
}

func TestCollectorCountsKinds(t *testing.T) {
	c := NewCollector()
	observePair(t, c,
		`<r><a>1</a><b/><mv/><x at="1"/></r>`,
		`<r><a>2</a><new/><deep><mv/></deep><x at="2"/></r>`)
	r := c.Report()
	if r.Ops.Updates == 0 || r.Ops.Inserts == 0 || r.Ops.Deletes == 0 {
		t.Errorf("ops = %v", r.Ops)
	}
	if r.Ops.AttrOps != 1 {
		t.Errorf("attr ops = %d", r.Ops.AttrOps)
	}
	if r.DeltaRatio() <= 0 {
		t.Errorf("delta ratio = %f", r.DeltaRatio())
	}
	var b strings.Builder
	r.WriteTable(&b)
	if !strings.Contains(b.String(), "label") || !strings.Contains(b.String(), "rate") {
		t.Errorf("table missing header:\n%s", b.String())
	}
}

func TestCollectorEmptyDelta(t *testing.T) {
	c := NewCollector()
	observePair(t, c, `<r><a>1</a></r>`, `<r><a>1</a></r>`)
	r := c.Report()
	if r.Ops.Total() != 0 || r.DeltaSize != 0 {
		t.Errorf("empty delta accumulated: %+v", r)
	}
	if r.Versions != 1 {
		t.Errorf("versions = %d", r.Versions)
	}
	// Occurrences still counted.
	if len(r.Labels) == 0 {
		t.Error("labels not counted for unchanged version")
	}
}

func TestCollectorOverSimulatedHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c := NewCollector()
	cur := changesim.Catalog(rng, 3, 10)
	for week := 0; week < 5; week++ {
		sim, err := changesim.Simulate(cur, changesim.Uniform(0.08, int64(week)))
		if err != nil {
			t.Fatal(err)
		}
		d, err := diff.Diff(cur, sim.New, diff.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c.Observe(cur, sim.New, d)
		cur = sim.New
	}
	r := c.Report()
	if r.Versions != 5 {
		t.Fatalf("versions = %d", r.Versions)
	}
	if r.Ops.Total() == 0 {
		t.Fatal("no ops observed")
	}
	// The paper's observation: deltas are much smaller than documents
	// at weekly change rates.
	if ratio := r.DeltaRatio(); ratio <= 0 || ratio > 1.0 {
		t.Errorf("delta/doc ratio = %f, want within (0,1]", ratio)
	}
	// Rates must be sane probabilities-ish (changes per occurrence can
	// exceed 1 only for pathological labels).
	for _, l := range r.Labels {
		if l.Occurrences == 0 && l.Changes() == 0 {
			t.Errorf("empty label entry %q", l.Label)
		}
	}
}

func TestRateZeroOccurrences(t *testing.T) {
	l := LabelStats{Updates: 3}
	if l.Rate() != 0 {
		t.Error("rate without occurrences should be 0")
	}
}

// observeReference is Observe as it was before the tally was taken
// outside the lock from a shared resolution: whole-tree XID indexes,
// the delta serialized through its document form, the new version
// materialized as a string for its length. The tests below hold
// Observe to its Report.
func observeReference(c *Collector, oldDoc, newDoc *dom.Node, d *delta.Delta) {
	c.mu.Lock()
	defer c.mu.Unlock()
	label := func(name string) *LabelStats {
		ls := c.labels[name]
		if ls == nil {
			ls = &LabelStats{Label: name}
			c.labels[name] = ls
		}
		return ls
	}
	index := func(doc *dom.Node) map[int64]*dom.Node {
		idx := make(map[int64]*dom.Node)
		dom.WalkPre(doc, func(n *dom.Node) bool {
			if n.XID != 0 {
				idx[n.XID] = n
			}
			return true
		})
		return idx
	}
	c.versions++
	dom.WalkPre(newDoc, func(n *dom.Node) bool {
		if n.Type == dom.Element {
			label(n.Name).Occurrences++
		}
		return true
	})
	if d.Empty() {
		return
	}
	cnt := d.Count()
	c.ops.Inserts += cnt.Inserts
	c.ops.Deletes += cnt.Deletes
	c.ops.Updates += cnt.Updates
	c.ops.Moves += cnt.Moves
	c.ops.AttrOps += cnt.AttrOps
	tree, err := d.ToDoc()
	if err != nil {
		panic(err)
	}
	c.deltaSize += int64(len(tree.String()))
	c.docSize += int64(len(newDoc.String()))
	oldIdx, newIdx := index(oldDoc), index(newDoc)
	for _, op := range d.Ops {
		first, second := newIdx, oldIdx
		if op.Kind == delta.KindDelete {
			first, second = oldIdx, newIdx
		}
		n := first[op.XID]
		if n == nil {
			n = second[op.XID]
		}
		if n == nil {
			continue
		}
		if n.Type != dom.Element && n.Parent != nil {
			n = n.Parent
		}
		if n.Type != dom.Element || n.Name == "" {
			continue
		}
		label(n.Name).count(op.Kind)
	}
}

// transitions returns n independent version pairs with their deltas,
// catalogs and HTML pages alternating.
func transitions(t *testing.T, n int) (olds, news []*dom.Node, deltas []*delta.Delta) {
	t.Helper()
	for i := 0; i < n; i++ {
		seed := int64(i + 1)
		rng := rand.New(rand.NewSource(seed))
		var oldDoc, newDoc *dom.Node
		if i%2 == 0 {
			oldDoc = changesim.CatalogOfSize(rng, 8000)
			res, err := changesim.Simulate(oldDoc, changesim.Uniform(0.10, seed))
			if err != nil {
				t.Fatal(err)
			}
			newDoc = res.New
		} else {
			oldDoc = changesim.HTMLPage(rng, 8)
			res, err := changesim.SimulateHTML(oldDoc, changesim.UniformHTML(0.12, seed))
			if err != nil {
				t.Fatal(err)
			}
			newDoc = res.New
		}
		var err error
		if oldDoc, err = dom.ParseString(oldDoc.String()); err != nil {
			t.Fatal(err)
		}
		if newDoc, err = dom.ParseString(newDoc.String()); err != nil {
			t.Fatal(err)
		}
		d, err := diff.Diff(oldDoc, newDoc, diff.Options{})
		if err != nil {
			t.Fatal(err)
		}
		olds, news, deltas = append(olds, oldDoc), append(news, newDoc), append(deltas, d)
	}
	// One transition that changes nothing counts a version and the
	// occurrences, no sizes.
	same, err := dom.ParseString(`<r><a/><a/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := diff.Diff(same, same.Clone(), diff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return append(olds, same), append(news, same), append(deltas, d)
}

func TestObserveMatchesReference(t *testing.T) {
	olds, news, deltas := transitions(t, 8)
	got, want := NewCollector(), NewCollector()
	for i := range deltas {
		got.Observe(olds[i], news[i], deltas[i])
		observeReference(want, olds[i], news[i], deltas[i])
	}
	g, w := got.Report(), want.Report()
	if !reflect.DeepEqual(g, w) {
		t.Errorf("Observe and the reference disagree:\n got %+v\nwant %+v", g, w)
	}
	if w.DeltaSize == 0 || w.DocSize == 0 || w.Ops.Total() < 100 {
		t.Errorf("reference report too plain to test with: %+v", w)
	}
}

// TestObserveConcurrentEqualsSequential has one goroutine per
// transition observe into a shared collector; tallies are merged under
// the lock, so the Report must be the sequential one whatever the
// interleaving.
func TestObserveConcurrentEqualsSequential(t *testing.T) {
	olds, news, deltas := transitions(t, 12)
	seq := NewCollector()
	for i := range deltas {
		seq.Observe(olds[i], news[i], deltas[i])
	}
	want := seq.Report()
	for round := 0; round < 5; round++ {
		c := NewCollector()
		var wg sync.WaitGroup
		for i := range deltas {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c.Observe(olds[i], news[i], deltas[i])
			}(i)
		}
		wg.Wait()
		if got := c.Report(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: concurrent report differs:\n got %+v\nwant %+v", round, got, want)
		}
	}
}
