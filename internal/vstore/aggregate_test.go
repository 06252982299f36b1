package vstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/xpathlite"
)

// aggregateReference is Aggregate as it was before it walked the chain
// once: reconstruct the older end, decode the range a second time, and
// let diff.Compose replay it forward. It is the oracle for the
// single-walk implementation.
func aggregateReference(s *Store, id string, from, to int) (*delta.Delta, error) {
	if from == to {
		return &delta.Delta{}, nil
	}
	lo, hi := min(from, to), max(from, to)
	base, err := s.Version(id, lo)
	if err != nil {
		return nil, err
	}
	chain, err := s.DeltasBetween(id, lo, hi)
	if err != nil {
		return nil, err
	}
	d, err := diff.Compose(base, chain...)
	if err != nil {
		return nil, err
	}
	if from > to {
		return d.Invert()
	}
	return d, nil
}

// TestAggregateAllPairsMatchComposition: for a seven-version chain
// under each matcher, every ordered pair of versions — forward and
// inverted — aggregates to the bytes the old double-decode composition
// gives, live and after the trees come back from stored bytes.
func TestAggregateAllPairsMatchComposition(t *testing.T) {
	const versions = 7
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	chains := []struct {
		matcher diff.Matcher
		next    func(cur *dom.Node) *dom.Node
	}{
		{diff.MatcherBULD, func(cur *dom.Node) *dom.Node {
			if cur == nil {
				return changesim.Catalog(rng, 3, 4)
			}
			res, err := changesim.Simulate(cur, changesim.Uniform(0.12, rng.Int63()))
			if err != nil {
				t.Fatal(err)
			}
			return res.New
		}},
		{diff.MatcherSFTM, func(cur *dom.Node) *dom.Node {
			if cur == nil {
				return changesim.HTMLPage(rng, 4)
			}
			res, err := changesim.SimulateHTML(cur, changesim.UniformHTML(0.08, rng.Int63()))
			if err != nil {
				t.Fatal(err)
			}
			return res.New
		}},
	}
	for _, c := range chains {
		var cur *dom.Node
		for v := 1; v <= versions; v++ {
			cur = c.next(cur)
			if _, _, err := s.PutMatcherContext(context.Background(), string(c.matcher), cur, c.matcher); err != nil {
				t.Fatalf("%s v%d: %v", c.matcher, v, err)
			}
		}
	}
	check := func(s *Store, label string) {
		t.Helper()
		for _, c := range chains {
			id := string(c.matcher)
			for from := 1; from <= versions; from++ {
				for to := 1; to <= versions; to++ {
					want, err := aggregateReference(s, id, from, to)
					if err != nil {
						t.Fatalf("%s: %s %d..%d: reference: %v", label, id, from, to, err)
					}
					got, err := s.Aggregate(id, from, to)
					if err != nil {
						t.Fatalf("%s: %s %d..%d: %v", label, id, from, to, err)
					}
					if g, w := renderDelta(t, got), renderDelta(t, want); g != w {
						t.Fatalf("%s: %s %d..%d: aggregate differs:\ngot  %s\nwant %s", label, id, from, to, g, w)
					}
				}
			}
		}
	}
	check(s, "live")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, diff.Options{}, Config{Shards: 2, CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check(reopened, "reopened")

	// Versions that cannot be served get the answers Version and
	// DeltasBetween give, word for word: no such version first, then —
	// with the document marked degraded — quarantined history.
	outside := [][2]int{{0, 3}, {3, 0}, {2, versions + 1}, {versions + 1, 2}, {versions + 1, versions + 2}, {-1, 0}}
	for _, kind := range []error{ErrNoSuchVersion, &DegradedError{}} {
		matched := 0
		for _, r := range outside {
			_, wantErr := aggregateReference(reopened, "buld", r[0], r[1])
			_, gotErr := reopened.Aggregate("buld", r[0], r[1])
			if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() || matches(gotErr, kind) != matches(wantErr, kind) {
				t.Errorf("%d..%d: got %v, want %v", r[0], r[1], gotErr, wantErr)
			}
			if matches(gotErr, kind) {
				matched++
			}
		}
		if matched == 0 {
			t.Errorf("no range outside 1..%d answered %v", versions, kind)
		}
		st := reopened.shardFor("buld").lookup("buld")
		st.mu.Lock()
		st.degraded, st.degradedReason = true, "marked by the test"
		st.mu.Unlock()
	}
	_, wantErr := aggregateReference(reopened, "nobody", 1, 2)
	if _, gotErr := reopened.Aggregate("nobody", 1, 2); gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Errorf("unknown document: got %v, want %v", gotErr, wantErr)
	}
}

// attributeChain is three versions of one element whose attributes are
// uploaded in name order, while a replayed insert-attribute appends: a
// tree rebuilt from the stored chain holds them as a, c, b, the tree
// the Put kept as a, b, c.
var attributeChain = []string{
	`<r><e a="1" c="1">t</e><f/></r>`,
	`<r><e a="1" b="1" c="1">t</e><f/></r>`,
	`<r><e a="1" b="2" c="2">t</e><f/></r>`,
}

// putStrings stores bodies as consecutive versions of id.
func putStrings(t *testing.T, s *Store, id string, bodies []string) {
	t.Helper()
	for _, body := range bodies {
		doc, err := dom.ParseString(body)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Put(id, doc); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAggregateBytesDoNotDependOnTheCache: an aggregate is a function
// of the stored chain, not of how the trees behind it were built. The
// two attribute updates of attributeChain's last step used to come out
// as "b, c" from the trees a Put left in the cache and as "c, b" from
// trees replayed after a reopen.
func TestAggregateBytesDoNotDependOnTheCache(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	putStrings(t, s, "doc", attributeChain)
	live, err := s.Aggregate("doc", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, diff.Options{}, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	replayed, err := reopened.Aggregate("doc", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := renderDelta(t, replayed), renderDelta(t, live); g != w {
		t.Errorf("Aggregate(2, 3) after a reopen:\n%s\nlive:\n%s", g, w)
	}
}

// TestAggregateOfOneVersionAnswersLikeVersion: Aggregate(id, a, a) has
// nothing to compose, but it must look the document and the version up
// as Version(id, a) does — it used to answer an empty delta for any
// document and any a, where a..a+1 answered "no such document".
func TestAggregateOfOneVersionAnswersLikeVersion(t *testing.T) {
	s, err := Open(t.TempDir(), diff.Options{}, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	putStrings(t, s, "doc", []string{`<r><a>1</a></r>`, `<r><a>2</a></r>`, `<r><a>3</a></r>`})
	check := func(id string, v int, kind error) {
		t.Helper()
		_, wantErr := s.Version(id, v)
		got, err := s.Aggregate(id, v, v)
		switch {
		case kind == nil && (err != nil || wantErr != nil || !got.Empty()):
			t.Errorf("Aggregate(%s, %d, %d) = %v, %v; Version says %v", id, v, v, got, err, wantErr)
		case kind != nil && (err == nil || wantErr == nil || err.Error() != wantErr.Error() || !matches(err, kind)):
			t.Errorf("Aggregate(%s, %d, %d) = %v; Version says %v, want %v", id, v, v, err, wantErr, kind)
		}
	}
	check("doc", 2, nil)
	check("ghost", 3, ErrUnknownDocument)
	check("doc", 0, ErrNoSuchVersion)
	check("doc", 4, ErrNoSuchVersion)
	st := s.shardFor("doc").lookup("doc")
	st.mu.Lock()
	st.degraded, st.degradedReason = true, "marked by the test"
	st.mu.Unlock()
	check("doc", 4, &DegradedError{})
	check("doc", 3, nil)
}

// TestChangesMatchingAnswersLikeDeltasBetween: a forward range
// ChangesMatching cannot scan gets DeltasBetween's answer, word for
// word — no such version on a healthy document, and, once the document
// is marked degraded, quarantined history rather than "no such
// version".
func TestChangesMatchingAnswersLikeDeltasBetween(t *testing.T) {
	s, err := Open("", diff.Options{}, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	putStrings(t, s, "doc", []string{`<r><a>1</a></r>`, `<r><a>2</a></r>`, `<r><a>3</a></r>`})
	expr := xpathlite.MustCompile(`//a`)
	check := func(from, to int, kind error) {
		t.Helper()
		_, wantErr := s.DeltasBetween("doc", from, to)
		_, err := s.ChangesMatching("doc", from, to, expr)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() || !matches(err, kind) {
			t.Errorf("ChangesMatching(doc, %d, %d) = %v; DeltasBetween says %v, want %v", from, to, err, wantErr, kind)
		}
	}
	check(0, 2, ErrNoSuchVersion)
	check(1, 5, ErrNoSuchVersion)
	st := s.shardFor("doc").lookup("doc")
	st.mu.Lock()
	st.degraded, st.degradedReason = true, "marked by the test"
	st.mu.Unlock()
	check(1, 5, &DegradedError{})
	check(4, 5, &DegradedError{})
	check(0, 2, ErrNoSuchVersion)
	if hits, err := s.ChangesMatching("doc", 1, 3, expr); err != nil || len(hits) == 0 {
		t.Errorf("the intact versions 1..3: %d hits, %v", len(hits), err)
	}
	if _, err := s.ChangesMatching("doc", 2, 2, expr); !errors.Is(err, ErrNoSuchVersion) {
		t.Errorf("ChangesMatching(doc, 2, 2) = %v, want %v", err, ErrNoSuchVersion)
	}
}

// TestOneStepAggregateIsTheStoredDelta pins, differentially, the
// identity a one-step Aggregate relies on: over BULD and SFTM chains,
// Aggregate(n, n+1) is stored delta n — the XML the store holds for
// it — Aggregate(n+1, n) is that delta inverted, and both are what
// diff.ComposeVersions makes of the two reconstructed versions,
// compared as bytes. Two more chains have a step on which the Put's
// windowed move rule and the exact one disagree, so an aggregate
// composed with the exact rule would lose moves there.
func TestOneStepAggregateIsTheStoredDelta(t *testing.T) {
	s, err := Open("", diff.Options{}, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	const versions = 6
	windowed := map[string][]*dom.Node{
		"long-list":     beyondTheWindow(t),
		"catalog-601-7": benchmarkCatalogStep(t),
	}
	for id, chain := range windowed {
		for _, doc := range chain {
			if _, _, err := s.Put(id, doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range append(putChains(t, s, versions), "long-list", "catalog-601-7") {
		last := versions
		if windowed[id] != nil {
			last = len(windowed[id])
		}
		for n := 1; n < last; n++ {
			xml := storedXML(t, s.shardFor(id).lookup(id), n-1)
			stored, err := delta.ParseBytes(xml)
			if err != nil {
				t.Fatal(err)
			}
			older, err := s.Version(id, n)
			if err != nil {
				t.Fatal(err)
			}
			newer, err := s.Version(id, n+1)
			if err != nil {
				t.Fatal(err)
			}
			composed, err := diff.ComposeVersions(older.Clone(), newer.Clone())
			if err != nil {
				t.Fatal(err)
			}
			want := string(xml)
			if got := renderDelta(t, composed); got != want {
				t.Errorf("%s %d..%d: ComposeVersions has %v, the stored delta %v", id, n, n+1, composed.Count(), stored.Count())
			}
			if windowed[id] != nil {
				exact, err := diff.Diff(older.Clone(), newer.Clone(), diff.Options{LISWindow: -1})
				if err != nil {
					t.Fatal(err)
				}
				if exact.Count().Moves >= stored.Count().Moves {
					t.Errorf("%s %d..%d: the exact move rule keeps %d moves, the stored delta %d; the case no longer separates the rules", id, n, n+1, exact.Count().Moves, stored.Count().Moves)
				}
			}
			got, err := s.Aggregate(id, n, n+1)
			if err != nil {
				t.Fatal(err)
			}
			if g := renderDelta(t, got); g != want {
				t.Errorf("%s: Aggregate(%d, %d) has %v, the stored delta %v", id, n, n+1, got.Count(), stored.Count())
			}
			inverted, err := stored.Invert()
			if err != nil {
				t.Fatal(err)
			}
			if composed, err = composed.Invert(); err != nil {
				t.Fatal(err)
			}
			want = renderDelta(t, inverted)
			if g := renderDelta(t, composed); g != want {
				t.Errorf("%s %d..%d: inverted ComposeVersions differs from the inverted stored delta", id, n+1, n)
			}
			if got, err = s.Aggregate(id, n+1, n); err != nil {
				t.Fatal(err)
			}
			if g := renderDelta(t, got); g != want {
				t.Errorf("%s: Aggregate(%d, %d) differs from the inverted stored delta", id, n+1, n)
			}
		}
	}
}

// beyondTheWindow is two versions of one 60-child list, longer than
// diff.DefaultLISWindow. The old order is new positions 34..59 and
// then 0..33. The first block of 50 (34..59, 0..23) keeps 34..59 as
// its heaviest increasing run, which the second block (24..33) cannot
// extend: the windowed rule moves 34 children where the exact rule
// moves 26.
func beyondTheWindow(t *testing.T) []*dom.Node {
	t.Helper()
	list := func(order []int) *dom.Node {
		var b strings.Builder
		b.WriteString("<list>")
		for _, i := range order {
			fmt.Fprintf(&b, "<item>%02d</item>", i)
		}
		b.WriteString("</list>")
		doc, err := dom.ParseString(b.String())
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	var old, sorted []int
	for i := range 60 {
		old = append(old, (i+34)%60)
		sorted = append(sorted, i)
	}
	return []*dom.Node{list(old), list(sorted)}
}

// benchmarkCatalogStep is the first step of the benchmark's
// ingest_large document 7 at seed 601 (benchmark/corpus.go): a
// catalog of about 130 KB and its 10%-churn successor, each through
// its canonical bytes. A 66-child Catalog in it has an intra-parent
// move (positions 59 → 50) that the windowed rule keeps and the exact
// rule drops.
func benchmarkCatalogStep(t *testing.T) []*dom.Node {
	t.Helper()
	rng := rand.New(rand.NewSource(601))
	for range 7 { // documents 0..6: a catalog and ten step seeds each
		changesim.CatalogOfSize(rng, 130000)
		for range 10 {
			rng.Int63()
		}
	}
	first := changesim.CatalogOfSize(rng, 130000)
	res, err := changesim.Simulate(first, changesim.Uniform(0.10, rng.Int63()))
	if err != nil {
		t.Fatal(err)
	}
	// The corpus keeps one text child per element.
	dom.WalkPre(res.New, func(n *dom.Node) bool {
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
	var out []*dom.Node
	for _, doc := range []*dom.Node{first, res.New} {
		parsed, err := dom.ParseString(doc.String())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, parsed)
	}
	return out
}

// TestOneStepAggregateDecodesOneDelta pins the work of a one-step
// Aggregate, forward and inverted, with the latest version cached and
// evicted: one stored delta decoded, no cache lookup, no keyframe met,
// and no allocation that grows with the document beyond those of
// decoding that delta (a read walk and a copy of a ~130 KB catalog are
// thousands).
func TestOneStepAggregateDecodesOneDelta(t *testing.T) {
	for _, size := range []int{7000, 130000} {
		chain := catalogChain(t, size, 3)
		for _, cache := range []int{0, 1} {
			s := chainStore(t, Config{Shards: 1, CacheSize: cache}, chain, "doc", "other")
			for _, r := range [][2]int{{1, 2}, {2, 1}, {2, 3}, {3, 2}} {
				before := s.StorageStats()
				if _, err := s.Aggregate("doc", r[0], r[1]); err != nil {
					t.Fatal(err)
				}
				after := s.StorageStats()
				if got := after.DeltasDecoded - before.DeltasDecoded; got != 1 {
					t.Errorf("%d B, cache %d: Aggregate(%d, %d) decoded %d deltas, want 1", size, cache, r[0], r[1], got)
				}
				if after.CacheHits != before.CacheHits || after.CacheMisses != before.CacheMisses ||
					after.KeyframeRestores != before.KeyframeRestores || after.KeyframeFallbacks != before.KeyframeFallbacks {
					t.Errorf("%d B, cache %d: Aggregate(%d, %d) looked the cache up: %+v, then %+v", size, cache, r[0], r[1], before, after)
				}
			}
			_, raw := chainXML(t, s.shardFor("doc").lookup("doc"))
			decode := testing.AllocsPerRun(10, func() {
				if _, err := delta.ParseBytes(raw[1]); err != nil {
					t.Fatal(err)
				}
			})
			aggregate := testing.AllocsPerRun(10, func() {
				if _, err := s.Aggregate("doc", 2, 3); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%d B, cache %d: Aggregate(2, 3) %.0f allocations, decoding its delta %.0f", size, cache, aggregate, decode)
			if aggregate > decode+4 {
				t.Errorf("%d B, cache %d: Aggregate(2, 3) allocates %.0f times, more than decoding its delta (%.0f) and 4", size, cache, aggregate, decode)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// matches is errors.Is, except that a *DegradedError kind stands for
// every *DegradedError, which errors.As finds.
func matches(err, kind error) bool {
	if _, ok := kind.(*DegradedError); ok {
		var de *DegradedError
		return errors.As(err, &de)
	}
	return errors.Is(err, kind)
}
