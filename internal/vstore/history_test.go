package vstore

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/faultfs"
	"xydiff/internal/store"
	"xydiff/internal/xpathlite"
)

// The repository's contract does not depend on where the chains live:
// these tests run every case against a store without a directory and
// against one on disk.

func forEachStore(t *testing.T, test func(t *testing.T, s *Store)) {
	t.Run("memory", func(t *testing.T) {
		s, err := Open("", diff.Options{}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		test(t, s)
	})
	t.Run("disk", func(t *testing.T) {
		s, _ := openTest(t, Config{Shards: 2})
		test(t, s)
	})
}

// seedHistory installs four versions of a small catalog as "cat".
func seedHistory(t *testing.T, s *Store) {
	t.Helper()
	for _, v := range []string{
		`<Catalog><Product><Name>tx</Name><Price>$499</Price></Product></Catalog>`,
		`<Catalog><Product><Name>tx</Name><Price>$479</Price></Product><Product><Name>zy</Name><Price>$799</Price></Product></Catalog>`,
		`<Catalog><Product><Name>tx</Name><Price>$450</Price></Product><Product><Name>zy</Name><Price>$699</Price></Product></Catalog>`,
		`<Catalog><Product><Name>zy</Name><Price>$699</Price></Product></Catalog>`,
	} {
		if _, _, err := s.Put("cat", parse(t, v)); err != nil {
			t.Fatal(err)
		}
	}
}

// noFS fails the test on any filesystem call: ReadFile reports it, and
// every other method panics on the nil FS embedded.
type noFS struct {
	faultfs.FS
	t *testing.T
}

func (f noFS) ReadFile(path string) ([]byte, error) {
	f.t.Fatalf("ReadFile(%s) on a store without a directory", path)
	return nil, nil
}

// TestNoDirectoryModeTouchesNothing: a store opened without a
// directory serves the whole contract from memory, calls its filesystem
// for nothing, and starts no goroutine that Close would have to stop.
func TestNoDirectoryModeTouchesNothing(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	s, err := Open("", diff.Options{}, Config{FS: noFS{t: t}, Scrub: ScrubConfig{Interval: 1}})
	if err != nil {
		t.Fatal(err)
	}
	seedHistory(t, s)
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("Open(\"\") started %d goroutines", n-goroutines)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if rep, err := s.ScrubPass(context.Background()); err != nil || rep.Found != 0 {
		t.Fatalf("ScrubPass = %+v, %v", rep, err)
	}
	if ds := s.DurabilityStats(); ds != (store.DurabilityStats{}) {
		t.Fatalf("durability stats = %+v, want zero", ds)
	}
	for v := 1; v <= 4; v++ {
		if _, err := s.Version("cat", v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryPastVersions(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Store) {
		seedHistory(t, s)
		expr := xpathlite.MustCompile(`//Product[Name='tx']/Price`)
		v1, err := s.Version("cat", 1)
		if err != nil {
			t.Fatal(err)
		}
		if nodes := expr.Select(v1); len(nodes) != 1 || nodes[0].TextContent() != "$499" {
			t.Fatalf("v1 selects %v", nodes)
		}
		v3, err := s.Version("cat", 3)
		if err != nil {
			t.Fatal(err)
		}
		if v := expr.Value(v3); v != "$450" {
			t.Errorf("v3 value = %q", v)
		}
		if _, err := s.Version("ghost", 1); err == nil {
			t.Error("unknown doc accepted")
		}
	})
}

func TestTimeline(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Store) {
		seedHistory(t, s)
		tl, err := s.Timeline("cat", xpathlite.MustCompile(`//Product[Name='tx']/Price`))
		if err != nil {
			t.Fatal(err)
		}
		want := []store.VersionValue{
			{Version: 1, Found: true, Value: "$499"},
			{Version: 2, Found: true, Value: "$479"},
			{Version: 3, Found: true, Value: "$450"},
			{Version: 4, Found: false},
		}
		if fmt.Sprint(tl) != fmt.Sprint(want) {
			t.Fatalf("timeline = %+v, want %+v", tl, want)
		}
		if _, err := s.Timeline("ghost", xpathlite.MustCompile("//x")); err == nil {
			t.Error("unknown doc accepted")
		}
	})
}

func TestNodeHistoryAcrossVersions(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Store) {
		seedHistory(t, s)
		// Find the persistent XID of the tx price node at version 1.
		v1, err := s.Version("cat", 1)
		if err != nil {
			t.Fatal(err)
		}
		price := xpathlite.MustCompile(`//Product[Name='tx']/Price`).SelectFirst(v1)
		if price == nil || price.XID == 0 {
			t.Fatal("price node has no XID")
		}
		hist, err := s.NodeHistory("cat", price.XID)
		if err != nil {
			t.Fatal(err)
		}
		if len(hist) != 4 {
			t.Fatalf("history length = %d", len(hist))
		}
		if !hist[0].Present || hist[0].Value != "$499" {
			t.Errorf("v1 state = %+v", hist[0])
		}
		if !hist[2].Present || hist[2].Value != "$450" {
			t.Errorf("v3 state = %+v", hist[2])
		}
		if hist[3].Present {
			t.Errorf("v4 should not contain the deleted product's price: %+v", hist[3])
		}
		if _, err := s.NodeHistory("ghost", 1); err == nil {
			t.Error("unknown doc accepted")
		}
	})
}

func TestNodeHistoryTracksMoves(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Store) {
		for _, v := range []string{`<r><a><item>payload</item></a><b/></r>`, `<r><a/><b><item>payload</item></b></r>`} {
			if _, _, err := s.Put("m", parse(t, v)); err != nil {
				t.Fatal(err)
			}
		}
		v1, err := s.Version("m", 1)
		if err != nil {
			t.Fatal(err)
		}
		item := xpathlite.MustCompile(`//item`).SelectFirst(v1)
		hist, err := s.NodeHistory("m", item.XID)
		if err != nil {
			t.Fatal(err)
		}
		if !hist[0].Present || !hist[1].Present {
			t.Fatalf("item should exist in both versions: %+v", hist)
		}
		if hist[0].Path != "/r/a/item" || hist[1].Path != "/r/b/item" {
			t.Errorf("move not reflected in paths: %q then %q", hist[0].Path, hist[1].Path)
		}
	})
}

func TestChangesMatching(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Store) {
		seedHistory(t, s)
		// "List of items recently introduced in a catalog": inserted
		// products between v1 and the latest.
		hits, err := s.ChangesMatching("cat", 1, 4, xpathlite.MustCompile(`//Product`), delta.KindInsert)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != 1 || hits[0].Version != 2 || hits[0].Op.Kind != delta.KindInsert {
			t.Fatalf("insert hits = %+v", hits)
		}
		// All price updates, matched through the text-parent rule.
		priceHits, err := s.ChangesMatching("cat", 1, 4, xpathlite.MustCompile(`//Price`), delta.KindUpdate)
		if err != nil {
			t.Fatal(err)
		}
		if len(priceHits) != 3 { // 499->479, 479->450, 799->699
			t.Fatalf("price update hits = %d: %+v", len(priceHits), priceHits)
		}
		for _, bad := range [][2]int{{3, 2}, {1, 9}} {
			if _, err := s.ChangesMatching("cat", bad[0], bad[1], xpathlite.MustCompile(`//x`)); err == nil {
				t.Errorf("range %d..%d accepted", bad[0], bad[1])
			}
		}
		if _, err := s.ChangesMatching("ghost", 1, 2, xpathlite.MustCompile(`//x`)); err == nil {
			t.Error("unknown doc accepted")
		}
	})
}

func TestChangesMatchingDeleteResolvesInOldVersion(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Store) {
		seedHistory(t, s)
		hits, err := s.ChangesMatching("cat", 3, 4, xpathlite.MustCompile(`//Product[Name='tx']`), delta.KindDelete)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != 1 || hits[0].Version != 4 {
			t.Fatalf("delete hits = %+v", hits)
		}
		if hits[0].Path != "/Catalog/Product[1]" && hits[0].Path != "/Catalog/Product" {
			t.Errorf("delete path = %q", hits[0].Path)
		}
	})
}

func TestQueryDeltaDocumentsViaStore(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Store) {
		// Deltas are XML documents: query one with xpathlite.
		seedHistory(t, s)
		d, err := s.Aggregate("cat", 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		deltaDoc, err := d.ToDoc()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, u := range xpathlite.MustCompile(`/delta/update/new`).Select(deltaDoc) {
			if u.TextContent() == "$450" {
				return
			}
			got = append(got, u.TextContent())
		}
		t.Errorf("expected $450 among update targets, got %v", got)
	})
}

func TestDeltaAccessors(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Store) {
		for _, v := range []string{`<a><x>1</x></a>`, `<a><x>2</x></a>`, `<a><x>3</x></a>`} {
			if _, _, err := s.Put("d", parse(t, v)); err != nil {
				t.Fatal(err)
			}
		}
		if d, err := s.Aggregate("d", 1, 2); err != nil || d.Count().Updates != 1 {
			t.Fatalf("Aggregate(1, 2) = %v, %v", d, err)
		}
		if _, err := s.Aggregate("d", 3, 4); err == nil {
			t.Error("Aggregate(3, 4) should not exist with 3 versions")
		}
		if same, err := s.DeltasBetween("d", 2, 2); err != nil || len(same) != 0 {
			t.Fatalf("DeltasBetween(2,2) = %d, %v", len(same), err)
		}
		// Applying the backward chain to v3 must give v1.
		bwd, err := s.DeltasBetween("d", 3, 1)
		if err != nil || len(bwd) != 2 {
			t.Fatalf("DeltasBetween(3,1) = %d, %v", len(bwd), err)
		}
		doc, err := s.Version("d", 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range bwd {
			if err := delta.Apply(doc, d); err != nil {
				t.Fatal(err)
			}
		}
		if v1, err := s.Version("d", 1); err != nil || !dom.Equal(doc, v1) {
			t.Fatalf("backward chain from v3 = %s, want v1 (%v)", doc, err)
		}
	})
}

func TestPutRejectsNonDocument(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Store) {
		if _, _, err := s.Put("x", dom.NewElement("a")); err == nil {
			t.Error("element accepted")
		}
		if _, _, err := s.Put("x", nil); err == nil {
			t.Error("nil accepted")
		}
	})
}

func TestPutDoesNotAliasCallerDocument(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Store) {
		doc := parse(t, `<a><b>1</b></a>`)
		if _, _, err := s.Put("d", doc); err != nil {
			t.Fatal(err)
		}
		doc.Root().Children[0].Children[0].Value = "mutated"
		latest, _, err := s.Latest("d")
		if err != nil || latest.Root().Children[0].Children[0].Value != "1" {
			t.Fatalf("store aliased the caller's document (%v)", err)
		}
	})
}

// TestConcurrentSameDoc hammers one document ID from many goroutines:
// writers race Put while readers race Version, Delta, Latest, Versions
// and IDs against them. Run under -race; the invariant checked is that
// every observed version reconstructs to a well-formed catalog whose
// item count equals the version's payload.
func TestConcurrentSameDoc(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Store) {
		const id = "hot/doc"
		const writers = 8
		const putsPerWriter = 5
		const readers = 8

		makeDoc := func(items int) *dom.Node {
			doc := dom.NewDocument()
			root := dom.NewElement("catalog")
			root.SetAttribute("items", fmt.Sprint(items))
			for k := 0; k < items; k++ {
				p := dom.NewElement("product")
				p.Append(dom.NewText(fmt.Sprintf("item-%d", k)))
				root.Append(p)
			}
			doc.Append(root)
			return doc
		}

		var wg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					n := s.Versions(id)
					if n == 0 {
						continue
					}
					for v := 1; v <= n; v++ {
						doc, err := s.Version(id, v)
						if err != nil {
							t.Errorf("version %d of %d: %v", v, n, err)
							return
						}
						root := doc.Root()
						if got, _ := root.Attribute("items"); got != fmt.Sprint(len(root.Children)) {
							t.Errorf("version %d: items=%s but %d children", v, got, len(root.Children))
							return
						}
					}
					for v := 1; v < n; v++ {
						if _, err := s.Aggregate(id, v, v+1); err != nil {
							t.Errorf("delta %d of %d: %v", v, n, err)
							return
						}
					}
					if _, _, err := s.Latest(id); err != nil {
						t.Errorf("latest: %v", err)
						return
					}
					s.IDs()
				}
			}()
		}
		var writerWG sync.WaitGroup
		for w := 0; w < writers; w++ {
			writerWG.Add(1)
			go func(w int) {
				defer writerWG.Done()
				for p := 0; p < putsPerWriter; p++ {
					if _, _, err := s.Put(id, makeDoc(1+(w*putsPerWriter+p)%13)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				}
			}(w)
		}
		writerWG.Wait()
		close(stop)
		wg.Wait()

		if got := s.Versions(id); got != writers*putsPerWriter {
			t.Fatalf("versions = %d, want %d", got, writers*putsPerWriter)
		}
	})
}

func TestEscapeID(t *testing.T) {
	for _, id := range []string{"plain", "with/slash", "dots.and-dash", "spaces here", "UPPER", "a_b"} {
		if got := unescapeID(escapeID(id)); got != id {
			t.Errorf("escape round trip %q -> %q", id, got)
		}
	}
	if escapeID("a/b") == "a/b" {
		t.Error("slash must be escaped")
	}
}
