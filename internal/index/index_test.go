package index

import (
	"math/rand"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

func doc(t *testing.T, s string) *dom.Node {
	t.Helper()
	d, err := dom.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	xid.Assign(d)
	return d
}

func TestAddDocumentAndSearch(t *testing.T) {
	ix := New()
	d := doc(t, `<cat><p>digital cameras</p><p>analog cameras rule</p></cat>`)
	ix.AddDocument("d1", d)
	hits := ix.Search("cameras")
	if len(hits) != 2 {
		t.Fatalf("cameras hits = %v", hits)
	}
	if got := ix.Search("CAMERAS"); len(got) != 2 {
		t.Error("search should be case-insensitive")
	}
	if got := ix.Search("film"); got != nil {
		t.Errorf("missing word hits = %v", got)
	}
	if hits[0].Count != 1 {
		t.Errorf("count = %d", hits[0].Count)
	}
	st := ix.Stats()
	if st.Docs != 1 || st.Words != 4 { // digital, cameras, analog, rule
		t.Errorf("stats = %+v", st)
	}
}

func TestSearchDocs(t *testing.T) {
	ix := New()
	ix.AddDocument("a", doc(t, `<r><p>go xml diff</p></r>`))
	ix.AddDocument("b", doc(t, `<r><p>xml warehouse</p></r>`))
	if got := ix.SearchDocs("xml"); len(got) != 2 {
		t.Errorf("xml docs = %v", got)
	}
	if got := ix.SearchDocs("xml", "diff"); len(got) != 1 || got[0] != "a" {
		t.Errorf("xml+diff docs = %v", got)
	}
	if got := ix.SearchDocs("xml", "nothere"); got != nil {
		t.Errorf("impossible conjunction = %v", got)
	}
}

// TestRemoveDocument: removing a document's postings, which
// AddDocument does before it indexes a new version, leaves no word,
// posting or document entry behind.
func TestRemoveDocument(t *testing.T) {
	ix := New()
	ix.AddDocument("a", doc(t, `<r><p>unique words here</p></r>`))
	ix.mu.Lock()
	ix.removeDocLocked("a")
	ix.mu.Unlock()
	if st := ix.Stats(); st.Words != 0 || st.Postings != 0 || st.Docs != 0 {
		t.Errorf("stats after removal = %+v", st)
	}
}

func TestAddDocumentReplaces(t *testing.T) {
	ix := New()
	ix.AddDocument("a", doc(t, `<r><p>first version</p></r>`))
	ix.AddDocument("a", doc(t, `<r><p>second version</p></r>`))
	if got := ix.Search("first"); got != nil {
		t.Errorf("stale postings: %v", got)
	}
	if got := ix.Search("second"); len(got) != 1 {
		t.Errorf("new postings: %v", got)
	}
}

func TestIncrementalMatchesRebuildSmall(t *testing.T) {
	oldDoc := doc(t, `<cat><p>alpha beta</p><q>gamma</q><mv>stable words</mv></cat>`)
	newDoc, err := dom.ParseString(`<cat><q>gamma delta</q><mv>stable words</mv><n>inserted text</n></cat>`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := diff.Diff(oldDoc, newDoc, diff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	incremental := New()
	incremental.AddDocument("doc", oldDoc)
	incremental.ApplyDelta("doc", d)

	rebuilt := New()
	rebuilt.AddDocument("doc", newDoc)
	if !Equal(incremental, rebuilt) {
		t.Fatalf("incremental index diverged\nincremental: %+v\nrebuilt: %+v",
			incremental.Stats(), rebuilt.Stats())
	}
}

func TestIncrementalMatchesRebuildRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		oldDoc := changesim.Catalog(rng, 2, 6)
		sim, err := changesim.Simulate(oldDoc, changesim.Uniform(0.15, int64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		d, err := diff.Diff(oldDoc, sim.New, diff.Options{})
		if err != nil {
			t.Fatal(err)
		}
		incremental := New()
		incremental.AddDocument("doc", oldDoc)
		incremental.ApplyDelta("doc", d)
		rebuilt := New()
		rebuilt.AddDocument("doc", sim.New)
		if !Equal(incremental, rebuilt) {
			t.Fatalf("trial %d: incremental != rebuilt (%+v vs %+v)\ndelta:\n%s",
				trial, incremental.Stats(), rebuilt.Stats(), d)
		}
	}
}

func TestMovesAreFreeForTheIndex(t *testing.T) {
	oldDoc := doc(t, `<r><a><item>movable payload</item></a><b/></r>`)
	newDoc, _ := dom.ParseString(`<r><a/><b><item>movable payload</item></b></r>`)
	d, err := diff.Diff(oldDoc, newDoc, diff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Count().Moves != 1 {
		t.Skip("expected a move")
	}
	ix := New()
	ix.AddDocument("doc", oldDoc)
	before := ix.Stats()
	ix.ApplyDelta("doc", d)
	after := ix.Stats()
	if before != after {
		t.Errorf("move changed index stats: %+v -> %+v", before, after)
	}
	// The posting still resolves: same XID, now under <b>.
	hits := ix.Search("payload")
	if len(hits) != 1 {
		t.Fatalf("hits = %v", hits)
	}
	n := dom.FindByXID(newDoc, hits[0].XID)
	if n == nil || n.Parent.Parent.Name != "b" {
		t.Errorf("posting does not resolve to the moved node")
	}
}

func TestApplyDeltaEmpty(t *testing.T) {
	ix := New()
	ix.AddDocument("doc", doc(t, `<r><p>x</p></r>`))
	before := ix.Stats()
	ix.ApplyDelta("doc", nil)
	if ix.Stats() != before {
		t.Error("nil delta changed the index")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a, b := New(), New()
	a.AddDocument("d", doc(t, `<r><p>one two</p></r>`))
	b.AddDocument("d", doc(t, `<r><p>one two</p></r>`))
	if !Equal(a, b) {
		t.Fatal("identical indexes unequal")
	}
	b.AddDocument("e", doc(t, `<r><p>three</p></r>`))
	if Equal(a, b) {
		t.Fatal("different indexes equal")
	}
}

func TestTokenize(t *testing.T) {
	got := tokenize("Hello, hello world! x2 naïve café")
	if got["hello"] != 2 {
		t.Errorf("hello count = %d", got["hello"])
	}
	if got["world"] != 1 || got["x2"] != 1 {
		t.Errorf("tokens = %v", got)
	}
	if got["naïve"] != 1 || got["café"] != 1 {
		t.Errorf("unicode tokens = %v", got)
	}
	if len(tokenize("  ,;!  ")) != 0 {
		t.Error("punctuation-only text produced tokens")
	}
}
