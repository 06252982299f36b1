package warehouse

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"xydiff/internal/alert"
	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/index"
	"xydiff/internal/xpathlite"
)

func parse(t *testing.T, s string) *dom.Node {
	t.Helper()
	d, err := dom.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLoadPipeline(t *testing.T) {
	w := New(diff.Options{})
	w.Subscribe(alert.Subscription{
		ID:    "new-products",
		Query: xpathlite.MustCompile(`//Product`),
		Kinds: []delta.Kind{delta.KindInsert},
	})

	res, err := w.Load("cat", parse(t, `<Catalog><Product><Name>a</Name></Product></Catalog>`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || res.Delta != nil || len(res.Alerts) != 0 {
		t.Fatalf("first load = %+v", res)
	}
	// The first version is searchable immediately.
	if docs := w.Search("a"); len(docs) != 1 || docs[0] != "cat" {
		t.Fatalf("search after first load = %v", docs)
	}

	res, err = w.Load("cat", parse(t, `<Catalog><Product><Name>a</Name></Product><Product><Name>brandnew</Name></Product></Catalog>`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || res.Delta == nil {
		t.Fatalf("second load = %+v", res)
	}
	if len(res.Alerts) != 1 || res.Alerts[0].SubID != "new-products" {
		t.Fatalf("alerts = %v", res.Alerts)
	}
	// Index reflects the delta.
	if docs := w.Search("brandnew"); len(docs) != 1 {
		t.Fatalf("search after update = %v", docs)
	}
	// Stats accumulated over the one transition; a first version is
	// not one.
	if st := w.Stats(); st.Versions != 1 || st.Ops.Inserts == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The past is queryable.
	v1, err := w.Version("cat", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(xpathlite.MustCompile(`//Product`).Select(v1)) != 1 {
		t.Error("version 1 wrong")
	}
	if w.Versions("cat") != 2 {
		t.Error("version count wrong")
	}
}

// TestIndexStaysConsistentOverHistory: after every Load, of any of
// several documents, the incrementally maintained index equals a full
// rebuild from each document's stored latest version.
func TestIndexStaysConsistentOverHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := New(diff.Options{})
	ids := []string{"a", "b", "c"}
	cur := map[string]*dom.Node{}
	check := func(step string) {
		t.Helper()
		rebuilt := index.New()
		for _, id := range ids {
			if w.Versions(id) == 0 {
				continue
			}
			latest, _, err := w.Latest(id)
			if err != nil {
				t.Fatal(err)
			}
			rebuilt.AddDocument(id, latest)
		}
		if !index.Equal(w.pipeline.index, rebuilt) {
			t.Fatalf("%s: incremental index differs from a rebuild", step)
		}
	}
	for _, id := range ids {
		cur[id] = changesim.Catalog(rng, 2, 8)
		if _, err := w.Load(id, cur[id]); err != nil {
			t.Fatal(err)
		}
		check(id + " v1")
	}
	for week := 0; week < 5; week++ {
		for i, id := range ids {
			sim, err := changesim.Simulate(cur[id], changesim.Uniform(0.1, int64(10*week+i)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Load(id, sim.New); err != nil {
				t.Fatal(err)
			}
			cur[id] = sim.New
			check(fmt.Sprintf("%s week %d", id, week))
		}
	}
	if docs := w.Search("warehouse"); len(docs) == 0 {
		t.Error("no document found by a generator word; the check compared empty indexes")
	}
}

// TestConcurrentLoadsReturnTheirOwnAlerts: Loads of distinct documents
// running at once each return exactly the alerts a sequential run
// raises for that document and version, never another Load's.
func TestConcurrentLoadsReturnTheirOwnAlerts(t *testing.T) {
	const docs, steps = 6, 5
	histories := make([][]*dom.Node, docs)
	for d := range histories {
		doc := changesim.Catalog(rand.New(rand.NewSource(int64(d))), 2, 6)
		histories[d] = append(histories[d], doc)
		for s := 0; s < steps; s++ {
			sim, err := changesim.Simulate(doc, changesim.Uniform(0.15, int64(100*d+s)))
			if err != nil {
				t.Fatal(err)
			}
			doc = sim.New
			histories[d] = append(histories[d], doc)
		}
	}
	subscribed := func() *Warehouse {
		w := New(diff.Options{})
		w.Subscribe(alert.Subscription{ID: "all"})
		w.Subscribe(alert.Subscription{ID: "ins", Kinds: []delta.Kind{delta.KindInsert}})
		return w
	}
	load := func(w *Warehouse, d int) ([][]alert.Alert, error) {
		var got [][]alert.Alert
		for _, doc := range histories[d] {
			res, err := w.Load(fmt.Sprint("doc-", d), doc)
			if err != nil {
				return nil, err
			}
			got = append(got, res.Alerts)
		}
		return got, nil
	}

	seq := subscribed()
	want := make([][][]alert.Alert, docs)
	for d := range want {
		var err error
		if want[d], err = load(seq, d); err != nil {
			t.Fatal(err)
		}
	}
	conc := subscribed()
	got := make([][][]alert.Alert, docs)
	errs := make([]error, docs)
	var wg sync.WaitGroup
	for d := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[d], errs[d] = load(conc, d)
		}()
	}
	wg.Wait()
	total := 0
	for d := range got {
		if errs[d] != nil {
			t.Fatal(errs[d])
		}
		if !reflect.DeepEqual(got[d], want[d]) {
			t.Errorf("doc-%d: concurrent Loads returned %v, sequential %v", d, got[d], want[d])
		}
		for _, alerts := range got[d] {
			total += len(alerts)
		}
	}
	if total == 0 {
		t.Fatal("no alerts raised; the test compared nothing")
	}
	if len(conc.raised) != 0 {
		t.Errorf("%d alert slots left uncollected", len(conc.raised))
	}
}

func TestTemporalDelegation(t *testing.T) {
	w := New(diff.Options{})
	w.Load("d", parse(t, `<r><v>1</v></r>`))
	w.Load("d", parse(t, `<r><v>2</v></r>`))
	w.Load("d", parse(t, `<r><v>3</v></r>`))
	tl, err := w.Timeline("d", xpathlite.MustCompile(`//v`))
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != 3 || tl[0].Value != "1" || tl[2].Value != "3" {
		t.Fatalf("timeline = %+v", tl)
	}
	hits, err := w.ChangesMatching("d", 1, 3, xpathlite.MustCompile(`//v`), delta.KindUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("hits = %+v", hits)
	}
	agg, err := w.Aggregate("d", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count().Updates != 1 {
		t.Fatalf("aggregate = %v", agg.Count())
	}
	if !w.Unsubscribe("nope") {
		// Unsubscribe of unknown id returns false; both branches fine.
		_ = struct{}{}
	}
}

func TestLoadErrors(t *testing.T) {
	w := New(diff.Options{})
	if _, err := w.Load("x", dom.NewElement("a")); err == nil {
		t.Error("element accepted")
	}
	if _, err := w.Load("x", nil); err == nil {
		t.Error("nil accepted")
	}
}
