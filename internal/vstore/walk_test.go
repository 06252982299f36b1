package vstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"xydiff/internal/alloctest"
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
		end, _, err := st.walk(from, targets, fwd, func(v int, doc *dom.Node, own bool) error {
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

// stepwiseVersions is every version of st's chain, indexed by version
// number, built from the stored base by step-by-step Apply.
func stepwiseVersions(t *testing.T, st *docState) []*dom.Node {
	t.Helper()
	want := make([]*dom.Node, st.versions+1)
	var err error
	base, _ := chainXML(t, st)
	if want[1], err = dom.ParseBytes(base, snapshotLoadOptions()); err != nil {
		t.Fatal(err)
	}
	xid.Assign(want[1])
	for v := 2; v <= st.versions; v++ {
		want[v] = want[v-1].Clone()
		stepwise(t, st, want[v], v-1, v)
	}
	return want
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
	want := stepwiseVersions(t, st)
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
// base and deltas add up to the fewest bytes of XML, ties backward,
// whether the deltas are held as XML or as frames; then, over a seeded
// sweep of random chains and targets, the cheapest split added up part
// by part.
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
		st := &docState{versions: len(c.deltas) + 1, base: xmlPart(make([]byte, c.base))}
		for _, n := range c.deltas {
			st.deltas = append(st.deltas, xmlPart(make([]byte, n)))
		}
		if got := st.plan(c.targets); got != c.want {
			t.Errorf("base %d, deltas %v, targets %v: %d forward, want %d", c.base, c.deltas, c.targets, got, c.want)
		}
		// Held as frames a third of their XML's size, version 1 and the
		// deltas weigh what their XML does.
		st.base = putPart(make([]byte, c.base/3), true, make([]byte, c.base))
		for i, n := range c.deltas {
			st.deltas[i] = putPart(make([]byte, n/3), true, make([]byte, n))
		}
		if got := st.plan(c.targets); got != c.want {
			t.Errorf("base %d, deltas %v, as frames, targets %v: %d forward, want %d", c.base, c.deltas, c.targets, got, c.want)
		}
	}

	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 2000; trial++ {
		// size[0] is version 1's XML; size[v] is the delta from version
		// v to v+1.
		size := make([]int, 2+rng.Intn(8))
		var parts []*part
		var targets []int
		for v := range size {
			size[v] = 1 + rng.Intn(40)
			parts = append(parts, xmlPart(make([]byte, size[v])))
			if rng.Intn(2) == 0 {
				targets = append(targets, v+1)
			}
		}
		// Split k crosses size[:targets[k-1]] forward from version 1
		// and size[targets[k]:] backward from the latest version.
		want, cheapest := 0, 0
		for k := 0; k <= len(targets); k++ {
			cost := 0
			for v, b := range size {
				if k > 0 && v < targets[k-1] || k < len(targets) && v >= targets[k] {
					cost += b
				}
			}
			if k == 0 || cost < cheapest {
				want, cheapest = k, cost
			}
		}
		st := &docState{versions: len(size), base: parts[0], deltas: parts[1:]}
		if got := st.plan(targets); got != want {
			t.Fatalf("sizes %v (version 1 first), targets %v: %d forward, want %d", size, targets, got, want)
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
// its walk happened to cross. A Put after eviction restores the latest
// version from its keyframe and decodes no delta, so it succeeds; on a
// store just reopened there is no keyframe, and its replay fails naming
// the materialization.
func TestReadErrorsNameTheirVersions(t *testing.T) {
	s := chainStore(t, Config{Shards: 1, CacheSize: 1}, flipChain(t, 2000, 5), "doc", "other")
	defer s.Close()
	unreadable := func(s *Store) {
		st := s.shardFor("doc").lookup("doc")
		st.mu.Lock()
		for i := range st.deltas {
			st.deltas[i] = xmlPart([]byte("<unreadable"))
		}
		st.mu.Unlock()
	}
	unreadable(s)
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
	decoded := s.StorageStats().DeltasDecoded
	if _, _, err := s.Put("doc", flipChain(t, 2000, 1)[0]); err != nil {
		t.Fatalf("Put after eviction: %v", err)
	}
	if got := s.StorageStats().DeltasDecoded - decoded; got != 0 {
		t.Errorf("Put after eviction decoded %d deltas, want 0", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(s.dir, diff.Options{}, Config{Shards: 1, CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	unreadable(reopened)
	_, _, err = reopened.Put("doc", flipChain(t, 2000, 1)[0])
	wantErr(err, "materialize doc:")
}

// TestConcurrentReadWalks: readers of two documents behind a
// one-document cache, so their walks start from a shared cached tree
// or restore one from its keyframe while another read evicts it, all
// get what step-by-step Apply gives. Then the same store reopened, where
// every part is XML until a walk decodes it: the readers' first walks
// replay both chains from version 1 at once, so several of them decode
// the same parts and swap in their frames together, and every part ends
// up a frame. Run under -race.
func TestConcurrentReadWalks(t *testing.T) {
	const versions = 6
	s := chainStore(t, Config{Shards: 1, CacheSize: 1}, flipChain(t, 3000, versions), "a", "b")
	ids := []string{"a", "b"}
	want := map[string][]string{}
	for _, id := range ids {
		want[id] = make([]string, versions+1)
		for v, doc := range stepwiseVersions(t, s.shardFor(id).lookup(id))[1:] {
			want[id][v+1] = renderWithXIDs(doc)
		}
	}
	concurrentReads(t, s, ids, want)
	if ss := s.StorageStats(); ss.KeyframeRestores == 0 {
		t.Errorf("no read restored a keyframe (%d misses, %d fallbacks)", ss.CacheMisses, ss.KeyframeFallbacks)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(s.dir, diff.Options{}, Config{Shards: 1, CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	concurrentReads(t, reopened, ids, want)
	for _, id := range ids {
		st := reopened.shardFor(id).lookup(id)
		for i, p := range append([]*part{st.base}, st.deltas...) {
			if !p.form.Load().frame {
				t.Errorf("%s: part %d is still XML after every version was read", id, i)
			}
		}
	}
	if h := reopened.StorageStats().HistoryXMLBytes; h != 0 {
		t.Errorf("%d bytes of history counted as XML after every part was decoded", h)
	}
}

// concurrentReads runs four readers of ids' versions and aggregates at
// once, each checking what it reads against want.
func concurrentReads(t *testing.T, s *Store, ids []string, want map[string][]string) {
	t.Helper()
	versions := len(want[ids[0]]) - 1
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
					t.Errorf("reader %d: %s version %d differs from the stepwise replay", r, id, v)
				}
				if _, err := s.Aggregate(id, v, 1+(v+r)%versions); err != nil {
					t.Error(err)
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestReadWalksDecodeAhead runs TestReadWalksAgree and
// TestConcurrentReadWalks on at least two processors, where walks once
// had helpers decoding their deltas ahead of them: every walk steps in
// line, so a read gives the same versions on two cores as on one. Run
// under -race.
func TestReadWalksDecodeAhead(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	t.Run("agree", TestReadWalksAgree)
	t.Run("concurrent", TestConcurrentReadWalks)
}

// TestReadWalkAllocations pins what the walk saves, in counts and
// bytes so it can gate go test. With the latest version cached, reading
// version 2 of twelve costs about what reading version 11 does; when
// every read walked back from the latest, version 2 decoded ten deltas
// where version 11 decodes one (5 276 allocations against 999; 1 255
// once planned; 1 233 against 961 with the XID table for the walk's
// index; 398 KB against 89 KB once a copy of the latest version was
// three allocations, which is why that comparison is in bytes now; 58
// against 42 with frames thawed and one op struct, whose ops are one
// slab; 58 against 41 with every step taken in line, no decode-ahead
// indirection left in the walk; 58 against 40 with a step building only
// the subtrees it attaches, 79 KB against 72 KB).
// On a miss the latest version comes back from its keyframe and the
// read walks as a hit does: a restore (40 allocations, with the
// keyframe the restore's eviction leaves; 690 when keyframes were XML)
// plus the hit's walk. With no keyframe, on a store just reopened, a
// miss costs the replay that caches the latest version (6 013 with a
// map for the index, 5 550 with the table, 4 530 with one op struct,
// 4 528 with every step in line, 1 948 with the parser cutting nodes
// from chunks)
// and one copy, not a further
// walk back from it and no second copy, in bytes.
func TestReadWalkAllocations(t *testing.T) {
	chain := flipChain(t, 7000, 12)
	s := chainStore(t, Config{Shards: 1}, chain, "doc")
	defer s.Close()
	hit := func(n int) (allocs, bytes float64) {
		return alloctest.Cost(t, 10, func() {
			if _, err := s.Version("doc", n); err != nil {
				t.Fatal(err)
			}
		})
	}
	near, nearBytes := hit(11)
	far, farBytes := hit(2)
	t.Logf("Version(11): %.0f allocations, %.0f KB; Version(2): %.0f, %.0f KB", near, nearBytes/1024, far, farBytes/1024)
	if farBytes > 2*nearBytes {
		t.Errorf("Version(2) allocates %.0f KB, more than twice Version(11)'s %.0f KB", farBytes/1024, nearBytes/1024)
	}
	if near > 60 || far > 42 {
		t.Errorf("Version(11) allocates %.0f times and Version(2) %.0f, want at most 60 and 42", near, far)
	}
	materialize := func(s *Store) func(id string) error {
		return func(id string) error {
			st := s.shardFor(id).lookup(id)
			st.mu.RLock()
			defer st.mu.RUnlock()
			_, err := s.materializeLocked(id, st)
			return err
		}
	}

	// Two documents through a one-document cache: every read misses
	// and restores from the keyframe the other read left.
	cold := chainStore(t, Config{Shards: 1, CacheSize: 1}, chain, "a", "b")
	defer cold.Close()
	misses := func(read func(id string) error) float64 {
		allocs, _ := alloctest.Cost(t, 10, func() {
			for _, id := range []string{"a", "b"} {
				if err := read(id); err != nil {
					t.Fatal(err)
				}
			}
		})
		return allocs / 2
	}
	restore := misses(materialize(cold))
	for _, n := range []int{1, 6, 12} {
		walk, _ := hit(n)
		got := misses(func(id string) error {
			_, err := cold.Version(id, n)
			return err
		})
		t.Logf("Version(%d) on a miss: %.0f allocations; restore %.0f, walk on a hit %.0f", n, got, restore, walk)
		if got > restore+walk+8 {
			t.Errorf("Version(%d) on a miss allocates %.0f times, more than a restore (%.0f) and a hit's walk (%.0f)", n, got, restore, walk)
		}
	}

	// A store just reopened has no keyframe, so each document's first
	// miss replays its chain. Every read below is some document's first.
	ids := make([]string, 20)
	for i := range ids {
		ids[i] = fmt.Sprint("d", i)
	}
	written := chainStore(t, Config{Shards: 1}, chain, ids...)
	if err := written.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(written.dir, diff.Options{}, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	firstMiss := func(read func(id string) error) (allocs, bytes float64) {
		return alloctest.Cost(t, 4, func() { // five reads, five documents
			id := ids[0]
			ids = ids[1:]
			if err := read(id); err != nil {
				t.Fatal(err)
			}
		})
	}
	replay, replayBytes := firstMiss(materialize(reopened))
	t.Logf("materialize on a miss: %.0f allocations from a keyframe, %.0f replaying the chain", restore, replay)
	if 4*restore > replay {
		t.Errorf("a keyframe restore allocates %.0f times, more than a quarter of a chain replay's %.0f", restore, replay)
	}
	if replay > 2050 {
		t.Errorf("replaying the chain allocates %.0f times, want at most 2050", replay)
	}
	for _, n := range []int{1, 6, 12} {
		doc, err := reopened.Version("d0", n)
		if err != nil {
			t.Fatal(err)
		}
		_, cloneBytes := alloctest.Cost(t, 10, func() { doc.Clone() })
		got, gotBytes := firstMiss(func(id string) error {
			_, err := reopened.Version(id, n)
			return err
		})
		t.Logf("Version(%d) replaying on a miss: %.0f allocations, %.0f KB; replay %.0f, %.0f KB; clone %.0f KB",
			n, got, gotBytes/1024, replay, replayBytes/1024, cloneBytes/1024)
		if got > replay+8 {
			t.Errorf("Version(%d) replaying on a miss allocates %.0f times, more than a replay (%.0f) plus 8", n, got, replay)
		}
		if gotBytes > replayBytes+cloneBytes+4<<10 {
			t.Errorf("Version(%d) replaying on a miss allocates %.0f KB, more than a replay (%.0f KB), a copy (%.0f KB) and 4 KB",
				n, gotBytes/1024, replayBytes/1024, cloneBytes/1024)
		}
	}
}

// FuzzReadWalks drives checkWalks with tape-built chains: a changesim
// catalog or page, changed step by step by its simulator or by an
// attribute insert, delete or reorder on a tape-chosen element, each
// version stored with a tape-chosen matcher. The same chain also goes
// under two documents behind a one-slot cache, where every Put and
// every read of one document restores it from its keyframe: the deltas
// stored there must be the same bytes, and checkRestores holds the
// reads to step-by-step Apply.
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
		var chain []*dom.Node
		var matchers []diff.Matcher
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
			chain, matchers = append(chain, cur), append(matchers, matcher)
		}
		st := s.shardFor("doc").lookup("doc")
		for i := range st.deltas {
			if _, err := delta.ParseBytes(storedXML(t, st, i)); err != nil {
				t.Fatalf("stored delta %d does not decode: %v", i+1, err)
			}
		}
		checkWalks(t, s, "doc")

		evicting, err := Open("", diff.Options{}, Config{Shards: 1, CacheSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		for v, doc := range chain {
			for _, id := range []string{"doc", "other"} {
				if _, _, err := evicting.PutMatcherContext(context.Background(), id, doc, matchers[v]); err != nil {
					t.Fatalf("%s version %d behind a one-slot cache: %v", id, v+1, err)
				}
			}
		}
		_, got := chainXML(t, evicting.shardFor("doc").lookup("doc"))
		_, want := chainXML(t, st)
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("delta %d behind a one-slot cache:\n got %s\nwant %s", i+1, got[i], want[i])
			}
		}
		checkRestores(t, evicting)
	})
}

// checkRestores reads every version of "doc", and the aggregate of each
// ordered pair of its versions, each right after a read of "other" has
// evicted it from a one-slot cache. Each read but a one-step aggregate
// therefore finds a current keyframe, and must either restore from it
// or fall back to the chain; either way it answers what step-by-step
// Apply gives. A one-step aggregate decodes its stored delta and meets
// no keyframe.
func checkRestores(t *testing.T, s *Store) {
	t.Helper()
	st := s.shardFor("doc").lookup("doc")
	want := stepwiseVersions(t, st)
	n := st.versions
	// evicted runs read right after evicting "doc", and fails unless
	// the read met exactly one current keyframe — or, for a one-step
	// aggregate, none, having decoded exactly one delta.
	evicted := func(what string, oneStep bool, read func() error) {
		t.Helper()
		if _, err := s.Version("other", 1); err != nil {
			t.Fatal(err)
		}
		ss := s.StorageStats()
		met, decoded := ss.KeyframeRestores+ss.KeyframeFallbacks, ss.DeltasDecoded
		if err := read(); err != nil {
			t.Fatalf("%s after eviction: %v", what, err)
		}
		ss = s.StorageStats()
		wantMet := 1
		if oneStep {
			wantMet = 0
			if got := ss.DeltasDecoded - decoded; got != 1 {
				t.Fatalf("%s after eviction decoded %d deltas, want 1", what, got)
			}
		}
		if got := ss.KeyframeRestores + ss.KeyframeFallbacks - met; got != int64(wantMet) {
			t.Fatalf("%s after eviction met %d keyframes, want %d", what, got, wantMet)
		}
	}
	for v := 1; v <= n; v++ {
		w := renderWithXIDs(want[v])
		evicted(fmt.Sprintf("Version(%d)", v), false, func() error {
			got, err := s.Version("doc", v)
			if err == nil && renderWithXIDs(got) != w {
				err = errors.New("differs from the stepwise replay")
			}
			return err
		})
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
			evicted(fmt.Sprintf("Aggregate(%d, %d)", from, to), hi-lo == 1, func() error {
				d, err := s.Aggregate("doc", from, to)
				if err == nil && renderDelta(t, d) != w {
					err = fmt.Errorf("\n got %s\nwant %s", renderDelta(t, d), w)
				}
				return err
			})
		}
	}
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
