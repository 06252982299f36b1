package changesim

import (
	"math/rand"
	"strings"
	"testing"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

func TestSimulatePerfectDeltaTransformsOldIntoNew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		doc := Catalog(rng, 2, 5)
		res, err := Simulate(doc, Uniform(0.1, int64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := delta.ApplyClone(doc, res.Perfect)
		if err != nil {
			t.Fatalf("trial %d: apply perfect delta: %v\n%s", trial, err, res.Perfect)
		}
		if !dom.Equal(got, res.New) {
			t.Fatalf("trial %d: perfect delta does not produce new version: %s",
				trial, dom.Diagnose(got, res.New))
		}
		// And inverse reconstructs the old version.
		inv, err := res.Perfect.Invert()
		if err != nil {
			t.Fatalf("trial %d invert: %v", trial, err)
		}
		back, err := delta.ApplyClone(res.New, inv)
		if err != nil {
			t.Fatalf("trial %d apply inverse: %v", trial, err)
		}
		if !dom.Equal(back, doc) {
			t.Fatalf("trial %d: inverse of perfect delta broken: %s", trial, dom.Diagnose(back, doc))
		}
	}
}

func TestSimulateDoesNotMutateOriginalStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	doc := Catalog(rng, 1, 4)
	before := doc.String()
	if _, err := Simulate(doc, Uniform(0.3, 7)); err != nil {
		t.Fatal(err)
	}
	if doc.String() != before {
		t.Fatal("Simulate changed the original document")
	}
}

func TestSimulateZeroProbabilitiesIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	doc := Catalog(rng, 1, 3)
	res, err := Simulate(doc, Params{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Equal(doc, res.New) {
		t.Fatal("zero-probability simulation changed the document")
	}
	if !res.Perfect.Empty() {
		t.Fatalf("zero-probability simulation produced ops:\n%s", res.Perfect)
	}
	if res.Stats != (Stats{}) {
		t.Fatalf("stats = %v, want zeros", res.Stats)
	}
}

func TestSimulateProducesRequestedMix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	doc := Catalog(rng, 5, 20) // ~1000 nodes
	res, err := Simulate(doc, Uniform(0.1, 11))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.deletes == 0 || res.Stats.updates == 0 || res.Stats.inserts == 0 {
		t.Fatalf("expected a mix of edits, got %v", res.Stats)
	}
	if res.Stats.moves == 0 {
		t.Fatalf("expected some moves at MoveProb=0.1 with a large pool, got %v", res.Stats)
	}
	c := res.Perfect.Count()
	if c.Total() == 0 {
		t.Fatal("perfect delta empty despite edits")
	}
}

func TestSimulateDeterministicForSeed(t *testing.T) {
	rng1 := rand.New(rand.NewSource(6))
	rng2 := rand.New(rand.NewSource(6))
	doc1 := Catalog(rng1, 2, 6)
	doc2 := Catalog(rng2, 2, 6)
	if !dom.Equal(doc1, doc2) {
		t.Fatal("generator not deterministic")
	}
	r1, err := Simulate(doc1, Uniform(0.2, 99))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(doc2, Uniform(0.2, 99))
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Equal(r1.New, r2.New) {
		t.Fatal("simulator not deterministic for equal seeds")
	}
	if r1.New.String() != r2.New.String() {
		t.Fatal("serialization of deterministic runs differs")
	}
}

func TestSimulateNewVersionSurvivesReparse(t *testing.T) {
	// The sibling-type constraint: the new version must not contain
	// adjacent text nodes, or serialize+parse would merge them.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		doc := Generic(rng, 120, 6, 4)
		res, err := Simulate(doc, Uniform(0.25, int64(trial*13+1)))
		if err != nil {
			t.Fatal(err)
		}
		reparsed, err := dom.ParseString(res.New.String())
		if err != nil {
			t.Fatalf("trial %d: new version does not reparse: %v", trial, err)
		}
		if !dom.Equal(res.New, reparsed) {
			t.Fatalf("trial %d: reparse changed the tree: %s", trial, dom.Diagnose(res.New, reparsed))
		}
	}
}

func TestSimulateRejectsNonDocument(t *testing.T) {
	if _, err := Simulate(dom.NewElement("x"), Uniform(0.1, 1)); err == nil {
		t.Error("element input accepted")
	}
	if _, err := Simulate(nil, Uniform(0.1, 1)); err == nil {
		t.Error("nil input accepted")
	}
}

func TestBULDFindsSimulatedChanges(t *testing.T) {
	// End-to-end: simulator produces (old, new, perfect); BULD's delta
	// must also transform old into new.
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		doc := Catalog(rng, 3, 8)
		res, err := Simulate(doc, Uniform(0.1, int64(trial+100)))
		if err != nil {
			t.Fatal(err)
		}
		old := doc.Clone()
		d, err := diff.Diff(old, res.New.Clone(), diff.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := delta.ApplyClone(old, d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !dom.Equal(got, res.New) {
			t.Fatalf("trial %d: BULD delta wrong: %s", trial, dom.Diagnose(got, res.New))
		}
	}
}

func TestGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	cat := Catalog(rng, 2, 3)
	if got := len(dom.Select(cat.Root(), "Category/Product")); got != 6 {
		t.Errorf("catalog products = %d, want 6", got)
	}
	ab := AddressBook(rng, 5)
	if got := len(dom.Select(ab.Root(), "Person")); got != 5 {
		t.Errorf("addressbook people = %d, want 5", got)
	}
	site := Site(rng, 10)
	if got := len(dom.Select(site.Root(), "page")); got != 10 {
		t.Errorf("site pages = %d, want 10", got)
	}
	gen := Generic(rng, 100, 5, 3)
	if got := gen.Size(); got < 50 || got > 120 {
		t.Errorf("generic size = %d, want ~100", got)
	}
	for _, doc := range []*dom.Node{cat, ab, site, gen} {
		if _, err := dom.ParseString(doc.String()); err != nil {
			t.Errorf("generated document does not reparse: %v", err)
		}
	}
}

func TestCatalogOfSize(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, target := range []int{2_000, 20_000, 200_000} {
		doc := CatalogOfSize(rng, target)
		size := len(doc.String())
		if size < target/2 || size > target*3 {
			t.Errorf("CatalogOfSize(%d) = %d bytes, want within 0.5x-3x", target, size)
		}
	}
}

func TestWebCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	docs, err := WebCorpus(rng, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 12 {
		t.Fatalf("corpus size = %d", len(docs))
	}
	kinds := map[string]int{}
	for _, d := range docs {
		kinds[d.Kind]++
		if d.Old == nil || d.New == nil {
			t.Fatal("corpus doc missing versions")
		}
		if dom.Equal(d.Old, d.New) {
			continue // a tiny doc may see no changes; fine
		}
	}
	if len(kinds) < 2 {
		t.Errorf("corpus lacks variety: %v", kinds)
	}
}

func TestSiteSnapshotPair(t *testing.T) {
	oldDoc, newDoc, err := SiteSnapshotPair(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if dom.Equal(oldDoc, newDoc) {
		t.Fatal("snapshots identical")
	}
	if !strings.Contains(oldDoc.String(), "<page") {
		t.Fatal("snapshot lacks pages")
	}
}

func TestCompensate(t *testing.T) {
	if got := compensate(0.1, 100, 50); got != 0.2 {
		t.Errorf("compensate = %f, want 0.2", got)
	}
	if got := compensate(0.9, 100, 10); got != 1 {
		t.Errorf("compensate clamp = %f, want 1", got)
	}
	if got := compensate(0.5, 100, 0); got != 0 {
		t.Errorf("compensate zero population = %f", got)
	}
}

func TestArticlesGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	doc := Articles(rng, 12)
	arts := dom.Select(doc.Root(), "article")
	if len(arts) != 12 {
		t.Fatalf("articles = %d", len(arts))
	}
	for _, a := range arts {
		if len(dom.Select(a, "author")) == 0 {
			t.Fatal("article without authors")
		}
		if _, ok := a.Attribute("key"); !ok {
			t.Fatal("article without key")
		}
	}
	if _, err := dom.ParseString(doc.String()); err != nil {
		t.Fatalf("articles doc does not reparse: %v", err)
	}
	// Simulate + diff round trip on the new shape.
	res, err := Simulate(doc, Uniform(0.15, 31))
	if err != nil {
		t.Fatal(err)
	}
	work := doc.Clone()
	d, err := diff.Diff(work, res.New.Clone(), diff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := delta.ApplyClone(work, d)
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Equal(got, res.New) {
		t.Fatalf("articles diff round trip: %s", dom.Diagnose(got, res.New))
	}
}

func TestGenericTerminatesWithOneChildSlot(t *testing.T) {
	// maxChildren=1 used to hang: a text node could fill the only open
	// slot and full nodes are never retired from the open list. The
	// clamp to two slots keeps generation terminating for any input.
	for seed := int64(0); seed < 50; seed++ {
		doc := Generic(rand.New(rand.NewSource(seed)), 40, 1, 3)
		if doc.Size() < 2 {
			t.Fatalf("seed %d: degenerate document %s", seed, doc)
		}
	}
}
