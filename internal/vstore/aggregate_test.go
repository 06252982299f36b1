package vstore

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/store"
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
	for _, kind := range []error{store.ErrNoSuchVersion, ErrDegraded} {
		matched := 0
		for _, r := range outside {
			_, wantErr := aggregateReference(reopened, "buld", r[0], r[1])
			_, gotErr := reopened.Aggregate("buld", r[0], r[1])
			if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() || errors.Is(gotErr, kind) != errors.Is(wantErr, kind) {
				t.Errorf("%d..%d: got %v, want %v", r[0], r[1], gotErr, wantErr)
			}
			if errors.Is(gotErr, kind) {
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
		case kind != nil && (err == nil || wantErr == nil || err.Error() != wantErr.Error() || !errors.Is(err, kind)):
			t.Errorf("Aggregate(%s, %d, %d) = %v; Version says %v, want %v", id, v, v, err, wantErr, kind)
		}
	}
	check("doc", 2, nil)
	check("ghost", 3, store.ErrUnknownDocument)
	check("doc", 0, store.ErrNoSuchVersion)
	check("doc", 4, store.ErrNoSuchVersion)
	st := s.shardFor("doc").lookup("doc")
	st.mu.Lock()
	st.degraded, st.degradedReason = true, "marked by the test"
	st.mu.Unlock()
	check("doc", 4, ErrDegraded)
	check("doc", 3, nil)
}
