package server

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"xydiff/internal/alert"
	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/vstore"
	"xydiff/internal/warehouse"
	"xydiff/internal/xpathlite"
)

// TestPipelineParity is a differential test of Figure 1's two front
// ends: one seeded history, PUT over HTTP to the daemon and Loaded into
// the library warehouse, must raise the same alerts for every document
// and leave the same change statistics, under either matcher.
//
// The last document declares an ID attribute in its DTD, and its two
// products swap IDs from version to version. Phase 1 (paper §5.2)
// matches them by ID in both front ends. When dom.Node.Clone dropped
// the DOCTYPE, warehouse.Load diffed a copy without it, and the front
// ends parted ("doc-3: the daemon raised 30 alerts, the warehouse 5",
// and the statistics counted 10 attribute changes the daemon never saw).
func TestPipelineParity(t *testing.T) {
	const docs, versions = 3, 6
	rng := rand.New(rand.NewSource(36))
	history := make([][]string, docs, docs+1) // history[d][v-1] is version v's XML
	for d := range history {
		doc := changesim.Catalog(rng, 2, 5)
		history[d] = append(history[d], doc.String())
		for v := 1; v < versions; v++ {
			sim, err := changesim.Simulate(doc, changesim.Uniform(0.12, int64(100*d+v)))
			if err != nil {
				t.Fatal(err)
			}
			doc = sim.New
			history[d] = append(history[d], doc.String())
		}
	}
	const dtd = `<!DOCTYPE Catalog [<!ATTLIST Product pid ID #REQUIRED>]>`
	var swaps []string
	for v := 0; v < versions; v++ {
		a, b := "p1", "p2"
		if v%2 == 1 {
			a, b = b, a
		}
		swaps = append(swaps, dtd+`<Catalog><Product pid="`+a+`"><Name>xml kit</Name><Price>1200</Price></Product>`+
			`<Product pid="`+b+`"><Name>camera</Name><Price>300</Price></Product></Catalog>`)
	}
	history = append(history, swaps)
	subs := []alert.Subscription{
		{ID: "path", Path: "Category/Product"},
		{ID: "query", Query: xpathlite.MustCompile(`//Product[Price>1000]`)},
		{ID: "kinds", Kinds: []delta.Kind{delta.KindUpdate, delta.KindMove}},
		{ID: "contains", Contains: "xml", Kinds: []delta.Kind{delta.KindInsert, delta.KindDelete}},
		{ID: "doc", DocID: "doc-1"},
	}

	for _, matcher := range []diff.Matcher{diff.MatcherBULD, diff.MatcherSFTM} {
		t.Run(string(matcher), func(t *testing.T) {
			opts := diff.Options{Matcher: matcher}
			st, err := vstore.Open("", opts, vstore.Config{})
			if err != nil {
				t.Fatal(err)
			}
			s := New(st, Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
			ts := httptest.NewServer(s.Handler())
			defer func() { ts.Close(); s.Close() }()
			w := warehouse.New(opts)
			for _, sub := range subs {
				s.Alerter().Subscribe(sub)
				w.Subscribe(sub)
			}

			loaded := make(map[string][]alert.Alert)
			raised := make(map[string]int) // by subscription
			for v := 1; v <= versions; v++ {
				for d := range history {
					id, body := fmt.Sprint("doc-", d), history[d][v-1]
					want := http.StatusOK
					if v == 1 {
						want = http.StatusCreated
					}
					if code, _, resp := doReq(t, "PUT", ts.URL+"/docs/"+id, body); code != want {
						t.Fatalf("PUT %s v%d: %d %s", id, v, code, resp)
					}
					doc, err := dom.ParseString(body)
					if err != nil {
						t.Fatal(err)
					}
					res, err := w.Load(id, doc)
					if err != nil {
						t.Fatal(err)
					}
					loaded[id] = append(loaded[id], res.Alerts...)
					for _, a := range res.Alerts {
						raised[a.SubID]++
					}
				}
			}
			for _, sub := range subs {
				if raised[sub.ID] == 0 {
					t.Errorf("subscription %q raised no alert; the history does not exercise it", sub.ID)
				}
			}
			for d := range history {
				id := fmt.Sprint("doc-", d)
				if got, want := s.alertLog.forDoc(id), loaded[id]; !reflect.DeepEqual(got, want) {
					t.Errorf("%s: the daemon raised %d alerts, the warehouse %d:\n daemon    %v\n warehouse %v",
						id, len(got), len(want), got, want)
				}
			}
			if got, want := s.pipeline.Stats.Report(), w.Stats(); !reflect.DeepEqual(got, want) {
				t.Errorf("statistics differ:\n daemon    %+v\n warehouse %+v", got, want)
			}
		})
	}
}
