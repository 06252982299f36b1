package vstore

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/xid"
	"xydiff/internal/xpathlite"
	"xydiff/internal/xptest"
)

// walkPlans runs the walk executor over targets once per plan — every
// split of the targets between the base and latest, then the forward
// replay of a cache miss — and returns, per plan, a private tree per
// target. It fails the test if a plan changes latest or a miss ends
// anywhere but the latest version.
func walkPlans(t *testing.T, st *docState, latest *dom.Node, targets []int) [][]*dom.Node {
	t.Helper()
	before := renderWithXIDs(latest)
	var plans [][]*dom.Node
	for fwd := 0; fwd <= len(targets)+1; fwd++ {
		from := latest
		if fwd > len(targets) {
			from = nil // a cache miss
		}
		got := make([]*dom.Node, len(targets))
		end, err := st.walk(from, targets, fwd, func(v int, doc *dom.Node, own bool) error {
			got[slices.Index(targets, v)] = private(doc, own)
			return nil
		})
		if err != nil {
			t.Fatalf("walk to %v, %d forward, miss %v: %v", targets, fwd, from == nil, err)
		}
		if renderWithXIDs(end) != before {
			t.Fatalf("walk to %v, %d forward, miss %v: ends away from the latest version", targets, fwd, from == nil)
		}
		plans = append(plans, got)
	}
	if renderWithXIDs(latest) != before {
		t.Fatalf("walks to %v changed the cached latest version", targets)
	}
	return plans
}

// checkWalks holds every plan of the read walk over id, and the store's
// own Version and Aggregate, to step-by-step Apply: each version byte
// for byte and XID for XID, and the aggregate of each ordered pair of
// versions byte for byte.
func checkWalks(t *testing.T, s *Store, id string) {
	t.Helper()
	st := s.shardFor(id).lookup(id)
	latest, err := s.materializeLocked(id, st)
	if err != nil {
		t.Fatal(err)
	}
	n := st.versions
	want := make([]*dom.Node, n+1)
	if want[1], err = dom.ParseBytes(st.base, snapshotLoadOptions()); err != nil {
		t.Fatal(err)
	}
	xid.Assign(want[1])
	for v := 2; v <= n; v++ {
		want[v] = want[v-1].Clone()
		stepwise(t, st, want[v], v-1, v)
	}
	for v := 1; v <= n; v++ {
		w := renderWithXIDs(want[v])
		for p, got := range walkPlans(t, st, latest, []int{v}) {
			if renderWithXIDs(got[0]) != w {
				t.Fatalf("%s version %d, plan %d: differs from the stepwise replay", id, v, p)
			}
		}
		got, err := s.Version(id, v)
		if err != nil {
			t.Fatalf("%s Version(%d): %v", id, v, err)
		}
		if renderWithXIDs(got) != w {
			t.Fatalf("%s Version(%d) differs from the stepwise replay", id, v)
		}
	}
	for from := 1; from <= n; from++ {
		for to := 1; to <= n; to++ {
			if from == to {
				continue
			}
			lo, hi := min(from, to), max(from, to)
			ref, err := compose(want[lo].Clone(), want[hi].Clone(), from > to)
			if err != nil {
				t.Fatal(err)
			}
			w := renderDelta(t, ref)
			for p, ends := range walkPlans(t, st, latest, []int{lo, hi}) {
				d, err := compose(ends[0], ends[1], from > to)
				if err != nil {
					t.Fatal(err)
				}
				if g := renderDelta(t, d); g != w {
					t.Fatalf("%s %d..%d, plan %d:\n got %s\nwant %s", id, from, to, p, g, w)
				}
			}
			d, err := s.Aggregate(id, from, to)
			if err != nil {
				t.Fatalf("%s Aggregate(%d, %d): %v", id, from, to, err)
			}
			if g := renderDelta(t, d); g != w {
				t.Fatalf("%s Aggregate(%d, %d):\n got %s\nwant %s", id, from, to, g, w)
			}
		}
	}
}

// TestPlanDecodesTheFewestBytes: the planner's split is the one whose
// base and deltas add up to the fewest stored bytes, ties backward.
func TestPlanDecodesTheFewestBytes(t *testing.T) {
	for _, c := range []struct {
		base    int
		deltas  []int
		targets []int
		want    int
	}{
		{100, []int{10, 10, 10, 10}, []int{2}, 0},          // 30 back, 110 forward
		{10, []int{100, 100, 100, 100}, []int{2}, 1},       // 300 back, 110 forward
		{10, []int{100, 100, 100, 100}, []int{5}, 0},       // nothing back
		{10, []int{100, 100, 100, 100}, []int{1}, 1},       // 400 back, the base alone forward
		{50, []int{10, 40, 10, 10}, []int{3}, 0},           // 20 back, 100 forward
		{50, []int{10, 40, 60, 10}, []int{3}, 0},           // 70 back, 100 forward
		{20, []int{10, 40, 60, 10}, []int{3}, 0},           // a tie at 70
		{10, []int{10, 40, 60, 10}, []int{3}, 1},           // 70 back, 60 forward
		{10, []int{5, 200, 5, 5}, []int{2, 4}, 1},          // 2 forward (15), 4 back (5)
		{10, []int{5, 5, 200, 5, 5}, []int{2, 3}, 2},       // both forward: 20
		{10, []int{5, 5, 200, 5, 5}, []int{4, 5}, 0},       // both back: 10
		{500, []int{5, 5, 200, 5, 5}, []int{1, 2, 3}, 0},   // the base outweighs the chain
		{5, []int{1, 1, 1, 1, 1, 1}, []int{1, 4, 7}, 0},    // 6 back; any split pays 5 for the base
		{1, []int{1, 1, 1, 9, 1, 1}, []int{1, 2, 4, 6}, 3}, // 4 forward + 1 back
	} {
		st := &docState{versions: len(c.deltas) + 1, base: make([]byte, c.base)}
		for _, n := range c.deltas {
			st.deltas = append(st.deltas, make([]byte, n))
		}
		if got := st.plan(c.targets); got != c.want {
			t.Errorf("base %d, deltas %v, targets %v: %d forward, want %d", c.base, c.deltas, c.targets, got, c.want)
		}
	}
}

// TestReadWalksAgree: every plan the read walk can take — forward from
// the base, backward from the latest version, split between the two,
// and the forward replay of a cache miss — reconstructs the same
// versions and composes the same aggregates as step-by-step Apply, for
// every version and every ordered pair of a seven-version chain under
// each matcher and for the attribute chain whose trees differ in
// attribute order. Live, and after the store comes back from its files
// with a one-document cache.
func TestReadWalksAgree(t *testing.T) {
	const versions = 7
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := putChains(t, s, versions)
	putStrings(t, s, "attributes", attributeChain)
	ids = append(ids, "attributes")
	check := func(s *Store, label string) {
		for _, id := range ids {
			t.Run(label+"/"+id, func(t *testing.T) { checkWalks(t, s, id) })
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
}

// TestReadErrorsNameTheirVersions: when a stored delta cannot be
// decoded, each read's error names the document and the versions that
// read asked for, so a log says which read failed — whichever deltas
// its walk happened to cross.
func TestReadErrorsNameTheirVersions(t *testing.T) {
	s := chainStore(t, Config{Shards: 1, CacheSize: 1}, flipChain(t, 2000, 5), "doc", "other")
	defer s.Close()
	st := s.shardFor("doc").lookup("doc")
	st.mu.Lock()
	for i := range st.deltas {
		st.deltas[i] = []byte("<unreadable")
	}
	st.mu.Unlock()
	wantErr := func(err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("error %v, want one naming %q", err, want)
		}
	}
	_, err := s.Version("doc", 3)
	wantErr(err, "reconstruct doc version 3:")
	_, err = s.Aggregate("doc", 4, 2)
	wantErr(err, "reconstruct doc versions 2..4:")
	_, err = s.Timeline("doc", xpathlite.MustCompile("//Product"))
	wantErr(err, "reconstruct doc versions 1..5:")
	if _, err := s.Version("other", 1); err != nil { // evicts doc
		t.Fatal(err)
	}
	_, _, err = s.Put("doc", flipChain(t, 2000, 1)[0])
	wantErr(err, "materialize doc:")
}

// TestConcurrentReadWalks: readers of two documents behind a
// one-document cache, so their walks start from a shared cached tree
// or replay and cache one concurrently, all get what a lone reader
// gets. Run under -race.
func TestConcurrentReadWalks(t *testing.T) {
	const versions = 6
	s := chainStore(t, Config{Shards: 1, CacheSize: 1}, flipChain(t, 3000, versions), "a", "b")
	defer s.Close()
	ids := []string{"a", "b"}
	want := map[string][]string{}
	for _, id := range ids {
		want[id] = make([]string, versions+1)
		for v := 1; v <= versions; v++ {
			doc, err := s.Version(id, v)
			if err != nil {
				t.Fatal(err)
			}
			want[id][v] = renderWithXIDs(doc)
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; k < 3*versions; k++ {
				id, v := ids[(r+k)%2], 1+(r+k)%versions
				doc, err := s.Version(id, v)
				if err != nil {
					t.Error(err)
					return
				}
				if renderWithXIDs(doc) != want[id][v] {
					t.Errorf("reader %d: %s version %d differs from a lone read", r, id, v)
				}
				if _, err := s.Aggregate(id, v, 1+(v+r)%versions); err != nil {
					t.Error(err)
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestReadWalkAllocations pins what the walk saves, in counts so it can
// gate go test. With the latest version cached, reading version 2 of
// twelve costs about what reading version 11 does; when every read
// walked back from the latest, version 2 decoded ten deltas where
// version 11 decodes one (5 276 allocations against 999; now 1 255).
// On a cache miss a read costs the replay that caches the latest
// version and one copy, not a further walk back from it (version 1:
// 11 746 allocations then, 6 608 now).
func TestReadWalkAllocations(t *testing.T) {
	s := chainStore(t, Config{Shards: 1}, flipChain(t, 7000, 12), "doc")
	defer s.Close()
	version := func(n int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := s.Version("doc", n); err != nil {
				t.Fatal(err)
			}
		})
	}
	near, far := version(11), version(2)
	t.Logf("Version(11): %.0f allocations, Version(2): %.0f", near, far)
	if far > 2*near {
		t.Errorf("Version(2) allocates %.0f times, more than twice Version(11)'s %.0f", far, near)
	}

	// Two documents through a one-document cache: every read misses.
	cold := chainStore(t, Config{Shards: 1, CacheSize: 1}, flipChain(t, 7000, 12), "a", "b")
	defer cold.Close()
	misses := func(read func(id string) error) float64 {
		return testing.AllocsPerRun(10, func() {
			for _, id := range []string{"a", "b"} {
				if err := read(id); err != nil {
					t.Fatal(err)
				}
			}
		}) / 2
	}
	materialize := misses(func(id string) error {
		st := cold.shardFor(id).lookup(id)
		st.mu.RLock()
		defer st.mu.RUnlock()
		_, err := cold.materializeLocked(id, st)
		return err
	})
	for _, n := range []int{1, 6, 12} {
		doc, err := cold.Version("a", n)
		if err != nil {
			t.Fatal(err)
		}
		clone := testing.AllocsPerRun(10, func() { doc.Clone() })
		got := misses(func(id string) error {
			_, err := cold.Version(id, n)
			return err
		})
		t.Logf("Version(%d) on a miss: %.0f allocations; materialize %.0f, clone %.0f", n, got, materialize, clone)
		if got > materialize+clone+8 {
			t.Errorf("Version(%d) on a miss allocates %.0f times, more than a materialization (%.0f) and a copy (%.0f)", n, got, materialize, clone)
		}
	}
}

// FuzzReadWalks drives checkWalks with tape-built chains: a changesim
// catalog or page, changed step by step by its simulator or by an
// attribute insert, delete or reorder on a tape-chosen element, each
// version stored with a tape-chosen matcher.
func FuzzReadWalks(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 7, 0, 4, 0, 0, 1, 3, 0, 2, 0, 1, 1})
	f.Add([]byte{0, 0, 1, 1, 1, 4, 1, 0, 1, 1, 2, 0, 0, 3, 9, 1, 2, 5})
	f.Add([]byte{0, 3, 2, 9, 0, 3, 1, 2, 3, 40, 0, 1, 17, 1, 4, 0, 200, 3, 0, 1, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		tape := xptest.NewTape(b)
		rng := rand.New(rand.NewSource(tape.Seed()))
		html := tape.Intn(2) == 1
		var cur *dom.Node
		if html {
			cur = changesim.HTMLPage(rng, 1+tape.Intn(3))
		} else {
			cur = changesim.Catalog(rng, 1+tape.Intn(2), 1+tape.Intn(3))
		}
		s, err := Open(t.TempDir(), diff.Options{}, Config{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		versions := 2 + tape.Intn(5)
		for v := 1; v <= versions; v++ {
			if v > 1 {
				if cur, err = nextVersion(tape, cur, html); err != nil {
					t.Fatal(err)
				}
			}
			matcher := diff.MatcherBULD
			if tape.Intn(2) == 1 {
				matcher = diff.MatcherSFTM
			}
			if _, _, err := s.PutMatcherContext(context.Background(), "doc", cur, matcher); err != nil {
				t.Fatal(err)
			}
		}
		st := s.shardFor("doc").lookup("doc")
		for i, raw := range st.deltas {
			if _, err := delta.ParseBytes(raw); err != nil {
				// A pruned subtree with adjacent text nodes does not
				// survive its own XML: a known defect of the delta
				// model, not of the walk, and every walk fails on it.
				t.Skipf("stored delta %d does not decode: %v", i+1, err)
			}
		}
		checkWalks(t, s, "doc")
	})
}

// nextVersion is cur changed by one tape-chosen edit: a simulator step,
// or an attribute inserted, deleted or reordered on one element.
func nextVersion(tape *xptest.Tape, cur *dom.Node, html bool) (*dom.Node, error) {
	kind := tape.Intn(4)
	if kind == 0 {
		rate, seed := 0.05*float64(1+tape.Intn(6)), tape.Seed()
		if html {
			res, err := changesim.SimulateHTML(cur, changesim.UniformHTML(rate, seed))
			if err != nil {
				return nil, err
			}
			return res.New, nil
		}
		res, err := changesim.Simulate(cur, changesim.Uniform(rate, seed))
		if err != nil {
			return nil, err
		}
		return res.New, nil
	}
	next := cur.Clone()
	var elems []*dom.Node
	dom.WalkPre(next, func(n *dom.Node) bool {
		if n.Type == dom.Element {
			elems = append(elems, n)
		}
		return true
	})
	e := elems[int(tape.Byte())*len(elems)/256]
	switch kind {
	case 1:
		name := []string{"a", "b", "id", "m", "z"}[tape.Intn(5)]
		if _, ok := e.Attribute(name); !ok {
			e.Attrs = append(e.Attrs, dom.Attr{Name: name, Value: string(rune('0' + tape.Intn(10)))})
		}
	case 2:
		if len(e.Attrs) > 0 {
			e.RemoveAttribute(e.Attrs[tape.Intn(len(e.Attrs))].Name)
		}
	case 3:
		slices.Reverse(e.Attrs)
		if len(e.Attrs) > 0 && tape.Intn(2) == 1 {
			e.Attrs[0].Value += "'"
		}
	}
	return next, nil
}
