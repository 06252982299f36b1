package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"testing"

	"xydiff/internal/alert"
	"xydiff/internal/alloctest"
	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/delta/deltatest"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/vstore"
	"xydiff/internal/xpathlite"
)

// TestDeltaBytesIsTheStoredBody pins the one number three places
// report: deltaBytes in the PUT answer, the length of the body GET
// /docs/{id}/deltas/{n} serves, and Delta.Size() — with and without a
// directory.
func TestDeltaBytesIsTheStoredBody(t *testing.T) {
	_, memory := newTestServer(t, Config{})
	st, _, sharded := newVstoreServer(t, vstore.Config{})
	versions := []string{
		catalogV1,
		catalogV2,
		`<Catalog><Category><Product status="sale"><Name>zy456</Name><Price>$1 &lt; $2 &amp; "q"</Price></Product></Category><!--c--></Catalog>`,
		`<Catalog><Category><Product status="sale"><Name>zy456</Name><Price>$1 &lt; $2 &amp; "q"</Price></Product></Category><!--c--></Catalog>`,
	}
	for name, base := range map[string]string{"store": memory.URL, "vstore": sharded.URL} {
		for v, body := range versions {
			code, _, ans := doReq(t, "PUT", base+"/docs/d", body)
			if code != http.StatusOK && code != http.StatusCreated {
				t.Fatalf("%s PUT v%d: %d %s", name, v+1, code, ans)
			}
			var put struct {
				Version    int `json:"version"`
				DeltaOps   int `json:"deltaOps"`
				DeltaBytes int `json:"deltaBytes"`
			}
			if err := json.Unmarshal([]byte(ans), &put); err != nil {
				t.Fatal(err)
			}
			if v == 0 {
				if put.DeltaBytes != 0 || put.DeltaOps != 0 {
					t.Errorf("%s first version reports a delta: %+v", name, put)
				}
				continue
			}
			code, _, served := doReq(t, "GET", fmt.Sprintf("%s/docs/d/deltas/%d", base, v), "")
			if code != http.StatusOK {
				t.Fatalf("%s GET delta %d: %d %s", name, v, code, served)
			}
			d, err := delta.ParseString(served)
			if err != nil {
				t.Fatal(err)
			}
			if put.DeltaBytes != len(served) || put.DeltaBytes != d.Size() || put.DeltaOps != len(d.Ops) {
				t.Errorf("%s v%d: PUT says %d bytes / %d ops; GET serves %d bytes, Size() = %d, %d ops",
					name, v+1, put.DeltaBytes, put.DeltaOps, len(served), d.Size(), len(d.Ops))
			}
		}
	}
	// The engine's own API reports the same number.
	doc, err := dom.ParseString(catalogV1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.PutDetailed(context.Background(), "d", doc, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Delta == nil || res.DeltaBytes != res.Delta.Size() || res.Version != len(versions)+1 {
		t.Errorf("PutDetailed = version %d, %d bytes; Size() = %d", res.Version, res.DeltaBytes, res.Delta.Size())
	}
}

// TestAlertLogBatchEqualsOneByOne: trimming once per batch leaves what
// trimming after every alert left, and every alert added is numbered.
func TestAlertLogBatchEqualsOneByOne(t *testing.T) {
	mk := func(doc string, n int) alert.Alert { return alert.Alert{DocID: doc, Version: n} }
	var batches [][]alert.Alert
	n := 0
	for _, size := range []int{3, 1, 0, 7, 2, 25, 4, 10, 1, 30} {
		var b []alert.Alert
		for i := 0; i < size; i++ {
			n++
			doc := "a"
			if size == 7 && i >= 4 {
				doc = "b" // one batch spanning two documents
			}
			b = append(b, mk(doc, n))
		}
		batches = append(batches, b)
	}
	const capPerDoc = 10
	got := newAlertLog(capPerDoc)
	want := map[string][]alert.Alert{}
	added := map[string]int{}
	for _, b := range batches {
		got.add(b)
		for _, a := range b {
			added[a.DocID]++
			log := append(want[a.DocID], a)
			if over := len(log) - capPerDoc; over > 0 {
				log = append(log[:0], log[over:]...)
			}
			want[a.DocID] = log
		}
		for _, doc := range []string{"a", "b"} {
			if g := got.forDoc(doc); len(g)+len(want[doc]) > 0 && !reflect.DeepEqual(g, want[doc]) {
				t.Fatalf("log for %s after a batch of %d:\n got %v\nwant %v", doc, len(b), g, want[doc])
			}
			d := got.byDoc[doc]
			if d == nil {
				continue
			}
			if c := cap(d.alerts); c > capPerDoc {
				t.Errorf("log for %s holds an array of %d entries for a cap of %d", doc, c, capPerDoc)
			}
			if d.next != added[doc] {
				t.Errorf("log for %s numbers %d alerts, %d were added", doc, d.next, added[doc])
			}
		}
	}
}

// observeFixture returns a server with subscriptions shaped like the
// end-to-end benchmark's and one observation whose documents are a
// catalog of the given number of categories plus a fixed head: the
// delta only touches the head, so it is the same delta whatever the
// size of the rest.
func observeFixture(t testing.TB, categories int) (*Server, vstore.Observation) {
	t.Helper()
	s := New(memoryStore(t), Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	t.Cleanup(s.Close)
	for _, sub := range []alert.Subscription{
		{ID: "k-insert", Kinds: []delta.Kind{delta.KindInsert}},
		{ID: "k-delete", Kinds: []delta.Kind{delta.KindDelete}},
		{ID: "k-update", Kinds: []delta.Kind{delta.KindUpdate}},
		{ID: "k-move", Kinds: []delta.Kind{delta.KindMove}},
		{ID: "p-0", Path: "Category/Product"},
		{ID: "p-1", Path: "Product/Price"},
		// An absolute query is evaluated over the whole version, which
		// costs per node by nature — but only once an operation of an
		// admitted kind shows up, and the fixture's delta moves nothing.
		{ID: "q-0", Query: xpathlite.MustCompile(`//Product[Price>500]`), Kinds: []delta.Kind{delta.KindMove}},
		// A relative query is evaluated per operation.
		{ID: "q-1", Query: xpathlite.MustCompile(`. | Price`)},
	} {
		s.pipeline.Alerter.Subscribe(sub)
	}
	head, err := dom.ParseString(`<Category><Title>head</Title>` +
		`<Product><Name>a</Name><Price>$900</Price></Product>` +
		`<Product status="new"><Name>b</Name><Price>$40</Price></Product>` +
		`<Product sku="c"><Name>c</Name><Price>$700</Price></Product></Category>`)
	if err != nil {
		t.Fatal(err)
	}
	oldDoc := changesim.Catalog(rand.New(rand.NewSource(1)), categories, 10)
	if err := oldDoc.Root().InsertAt(0, head.Root()); err != nil {
		t.Fatal(err)
	}
	newDoc := oldDoc.Clone()
	nh := newDoc.Root().Children[0]
	nh.Children[1].Children[1].Children[0].Value = "$950" // update
	nh.Children[2].SetAttribute("status", "sale")         // update-attribute
	nh.RemoveAt(3)                                        // delete
	// A new label, so the diff cannot take the insert for an update of
	// the deleted product.
	added := dom.NewElement("Bundle")
	added.SetAttribute("sku", "d")
	added.Append(dom.NewElement("Name").Append(dom.NewText("d")), dom.NewElement("Price").Append(dom.NewText("$2000")))
	nh.Append(added) // insert
	r, err := diff.DiffDetailed(oldDoc, newDoc, diff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, vstore.Observation{ID: "doc", Version: 2, Old: oldDoc, New: newDoc, Result: r, DeltaBytes: r.Delta.Size()}
}

// TestObserveAllocationsFollowTheDeltaNotTheDocument is the regression
// guard for the PUT tail: everything the store's observer does —
// statistics, alert evaluation, alert log — for one fixed delta, on a
// document and on the same document with ten times the nodes. Walking
// a bigger document allocates nothing; a whole-tree XID map, a
// materialized serialization or a node set over every node would, and
// fails here instead of in a later benchmark.
func TestObserveAllocationsFollowTheDeltaNotTheDocument(t *testing.T) {
	measure := func(categories int) (allocs float64, ops, nodes int) {
		s, o := observeFixture(t, categories)
		s.observe(o) // the first call also fills the collector's label table
		if got := len(s.alertLog.forDoc("doc")); got < 6 {
			t.Fatalf("%d categories: only %d alerts logged; the fixture exercises too little", categories, got)
		}
		allocs, _ = alloctest.Cost(t, 20, func() { s.observe(o) })
		return allocs, len(o.Result.Delta.Ops), o.New.Size()
	}
	small, smallOps, smallNodes := measure(4)
	large, largeOps, largeNodes := measure(49)
	if smallOps != largeOps || smallOps < 4 {
		t.Fatalf("the two fixtures must share one delta of at least 4 ops: %d vs %d ops", smallOps, largeOps)
	}
	if largeNodes < 9*smallNodes {
		t.Fatalf("padded document has %d nodes, the plain one %d: want about 10x", largeNodes, smallNodes)
	}
	t.Logf("%d ops: %.0f allocations on %d nodes, %.0f on %d nodes", smallOps, small, smallNodes, large, largeNodes)
	if large > 1.2*small {
		t.Errorf("observe allocates %.0f times on %d nodes but %.0f on %d for the same delta: "+
			"something on the PUT tail allocates per document node again", large, largeNodes, small, smallNodes)
	}
}

// TestAlertLogPinsNoSubtree: once the observer has run, the alert log
// holds the PUT's alerts and none of its delta's subtrees.
func TestAlertLogPinsNoSubtree(t *testing.T) {
	var w *deltatest.Subtrees
	s := func() *Server {
		s, o := observeFixture(t, 4)
		w = deltatest.WatchSubtrees(t, o.Result.Delta)
		s.observe(o)
		return s
	}()
	if got := len(s.alertLog.forDoc("doc")); got < 6 {
		t.Fatalf("only %d alerts logged; the fixture exercises too little", got)
	}
	if freed, watched := w.Collected(); freed != watched {
		t.Errorf("%d of %d insert and delete subtrees were collected; the alert log keeps the rest reachable", freed, watched)
	}
	runtime.KeepAlive(s)
}
