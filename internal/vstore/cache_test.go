package vstore

import (
	"math/rand"
	"runtime"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// evictedDoc stores the same chain of versions under "doc" and "other"
// behind a one-slot cache, so "doc"'s latest version is a keyframe.
func evictedDoc(t *testing.T, versions int) *Store {
	t.Helper()
	s := chainStore(t, Config{Shards: 1, CacheSize: 1}, flipChain(t, 2000, versions), "doc", "other")
	t.Cleanup(func() { s.Close() })
	if f, ok := s.cache.frames["doc"]; !ok || f.versions != versions {
		t.Fatalf("doc's keyframe: present %v, version %d; want version %d", ok, f.versions, versions)
	}
	return s
}

// readMatches reads version v of "doc" and fails unless it is what
// step-by-step Apply from the stored base gives.
func readMatches(t *testing.T, s *Store, v int) {
	t.Helper()
	got, err := s.Version("doc", v)
	if err != nil {
		t.Fatal(err)
	}
	want := stepwiseVersions(t, s.shardFor("doc").lookup("doc"))[v]
	if renderWithXIDs(got) != renderWithXIDs(want) {
		t.Fatalf("Version(%d) differs from the stepwise replay", v)
	}
}

// TestKeyframeFallback: a keyframe that does not thaw — truncated, with
// a name index out of range, with counts that do not add up, or with
// trailing bytes — is never served. The read falls back to the chain
// and answers what step-by-step Apply gives, the fallback is counted,
// and the frame is dropped.
func TestKeyframeFallback(t *testing.T) {
	bad := badFrames()
	for _, name := range []string{"truncated", "name index out of range", "counts that do not add up", "trailing bytes"} {
		t.Run(name, func(t *testing.T) {
			s := evictedDoc(t, 5)
			setFrame(s, "doc", bad[name])
			restores := s.StorageStats().KeyframeRestores
			readMatches(t, s, 3)
			ss := s.StorageStats()
			if ss.KeyframeFallbacks != 1 || ss.KeyframeRestores != restores {
				t.Errorf("%d fallbacks and %d restores, want 1 and 0", ss.KeyframeFallbacks, ss.KeyframeRestores-restores)
			}
			if _, ok := s.cache.frames["doc"]; ok {
				t.Error("the keyframe that did not restore is still resident")
			}
		})
	}
}

// setFrame swaps the body of id's keyframe for frame.
func setFrame(s *Store, id string, frame []byte) {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	f := s.cache.frames[id]
	s.cache.frameBytes += int64(len(frame) - len(f.body))
	f.body = frame
	s.cache.frames[id] = f
}

// TestBadKeyframeTriedOnce: a keyframe that does not thaw is dropped by
// the miss that tried it, even when the replay that follows fails too,
// so later misses do not try it again.
func TestBadKeyframeTriedOnce(t *testing.T) {
	s := evictedDoc(t, 5)
	setFrame(s, "doc", badFrames()["truncated"])
	st := s.shardFor("doc").lookup("doc")
	st.mu.Lock()
	st.deltas[0] = xmlPart([]byte("<not a delta"))
	st.mu.Unlock()
	for i := 0; i < 3; i++ {
		if _, err := s.Version("doc", 5); err == nil {
			t.Fatal("a read across an unreadable delta succeeded")
		}
	}
	ss := s.StorageStats()
	if ss.KeyframeFallbacks != 1 || ss.KeyframeBytes != 0 {
		t.Errorf("%d fallbacks and %d keyframe bytes after three reads, want 1 and 0", ss.KeyframeFallbacks, ss.KeyframeBytes)
	}
	if _, ok := s.cache.frames["doc"]; ok {
		t.Error("the keyframe that did not restore is still resident")
	}
}

// TestKeyframeKeepsAdjacentTexts: a tree with two adjacent texts, which
// no XML round trip keeps apart, comes back from its keyframe as it was
// put, with no fallback.
func TestKeyframeKeepsAdjacentTexts(t *testing.T) {
	s, err := Open("", diff.Options{}, Config{Shards: 1, CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	doc := func(texts ...string) *dom.Node {
		a := dom.NewElement("a")
		for _, v := range texts {
			a.Append(dom.NewText(v))
		}
		return dom.NewDocument().Append(a)
	}
	for _, p := range []struct {
		id  string
		doc *dom.Node
	}{{"doc", doc("x")}, {"doc", doc("x", "y")}, {"other", doc("z")}} {
		if _, _, err := s.Put(p.id, p.doc); err != nil {
			t.Fatal(err)
		}
	}
	if f, ok := s.cache.frames["doc"]; !ok || f.versions != 2 {
		t.Fatal("doc's version 2 is not a keyframe")
	}
	got, err := s.Version("doc", 2)
	if err != nil {
		t.Fatal(err)
	}
	if kids := got.Root().Children; len(kids) != 2 || kids[0].Value != "x" || kids[1].Value != "y" {
		t.Errorf("Version(2) is %s with %d texts, want the two put", got, len(kids))
	}
	if ss := s.StorageStats(); ss.KeyframeRestores != 1 || ss.KeyframeFallbacks != 0 {
		t.Errorf("%d restores and %d fallbacks, want 1 and 0", ss.KeyframeRestores, ss.KeyframeFallbacks)
	}
}

// TestKeyframeRestoreAllocations: a restore allocates a few times, the
// same at 7 KB as at 130 KB: the text, the name table, and one slice
// each of nodes, child pointers and attributes.
func TestKeyframeRestoreAllocations(t *testing.T) {
	var counts []float64
	for _, size := range []int{7000, 130000} {
		c := newVersionCache(1)
		doc := changesim.CatalogOfSize(rand.New(rand.NewSource(7)), size)
		xid.Assign(doc)
		c.put("a", doc, 1)
		c.put("b", dom.NewDocument(), 1) // evicts a
		frame := len(c.frames["a"].body)
		allocs := testing.AllocsPerRun(10, func() {
			if c.restore("a", 1) == nil {
				t.Fatal("the keyframe did not restore")
			}
		})
		t.Logf("%d-byte catalog, %d-byte frame: %.0f allocations per restore", size, frame, allocs)
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] || counts[0] > 8 {
		t.Errorf("a restore allocates %.0f times at 7 KB and %.0f at 130 KB, want the same and at most 8", counts[0], counts[1])
	}
}

// TestKeyframeNeverStale: a keyframe belongs to one version count. A
// Put drops it, and one left behind by a version count that moved
// without a Put (as a replaced chain would) is dropped unserved, in
// either direction; every read answers what step-by-step Apply gives.
func TestKeyframeNeverStale(t *testing.T) {
	t.Run("put", func(t *testing.T) {
		s := evictedDoc(t, 4)
		if _, _, err := s.Put("doc", flipChain(t, 2000, 6)[5]); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.cache.frames["doc"]; ok {
			t.Fatal("a Put left the document's keyframe resident")
		}
		if _, err := s.Version("other", 1); err != nil { // evicts version 5
			t.Fatal(err)
		}
		if f := s.cache.frames["doc"]; f.versions != 5 {
			t.Fatalf("keyframe at version %d after the Put, want 5", f.versions)
		}
		readMatches(t, s, 5)
	})
	for _, c := range []struct {
		name  string
		moved func(t *testing.T, s *Store, st *docState)
	}{
		{"version count down", func(t *testing.T, s *Store, st *docState) {
			st.deltas = st.deltas[:len(st.deltas)-1]
			st.versions--
		}},
		{"version count up", func(t *testing.T, s *Store, st *docState) {
			// "other" holds the same chain, so its next delta applies.
			if _, _, err := s.Put("other", flipChain(t, 2000, 6)[5]); err != nil {
				t.Fatal(err)
			}
			st.deltas = append(st.deltas, s.shardFor("other").lookup("other").deltas[4])
			st.versions++
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := evictedDoc(t, 5)
			st := s.shardFor("doc").lookup("doc")
			st.mu.Lock()
			c.moved(t, s, st)
			st.mu.Unlock()
			if _, err := s.Version("other", 1); err != nil { // keeps doc out of the LRU
				t.Fatal(err)
			}
			if f, ok := s.cache.frames["doc"]; !ok || f.versions != 5 {
				t.Fatal("the stale keyframe is gone before the read")
			}
			before := s.StorageStats()
			readMatches(t, s, st.versions)
			after := s.StorageStats()
			restores := after.KeyframeRestores - before.KeyframeRestores
			fallbacks := after.KeyframeFallbacks - before.KeyframeFallbacks
			if restores != 0 || fallbacks != 0 {
				t.Errorf("%d restores and %d fallbacks of a stale keyframe, want none", restores, fallbacks)
			}
			if _, ok := s.cache.frames["doc"]; ok {
				t.Error("the stale keyframe is still resident")
			}
		})
	}
}

// TestResidentBytesAreExact: the bytes a Put keeps resident — the XML
// of version 1 until a walk decodes it, the frame of each delta, and
// each keyframe — hold allocations of their own length, up to the
// allocator's size class, besides each part's small header; an
// encoder's growth buffer would hold up to twice that. Measured once
// every part is decoded, so that version 1 is a frame too: the same
// store reopened, from its journal and then from a compacted snapshot,
// holds each part's XML, exactly as long as the XML the live frames
// render, and once every part is decoded it holds the live store's
// frames again.
func TestResidentBytesAreExact(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 1, CacheSize: 1}
	open := func() *Store {
		s, err := Open(dir, diff.Options{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	closeStore := func(s *Store) {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s := open()
	// Two documents and room for one tree: each Put turns the other
	// document's tree into a keyframe.
	ids := []string{"a", "b"}
	for _, doc := range catalogChain(t, 130000, 4) {
		for _, id := range ids {
			if _, _, err := s.Put(id, doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	xmlLen := 0
	for _, id := range ids {
		st := s.shardFor(id).lookup(id)
		if st.base.form.Load().frame {
			t.Fatalf("%s: a Put froze version 1", id)
		}
		for _, p := range st.deltas {
			if !p.form.Load().frame {
				t.Fatalf("%s holds a delta a Put made as XML", id)
			}
		}
		settleAll(t, st)
		for _, p := range append([]*part{st.base}, st.deltas...) {
			_, size := p.sum()
			xmlLen += size
		}
	}
	// residentBytes lets go of what it measures, so each store is closed
	// first and reopened for the next step.
	closeStore(s)
	live := residentBytes(t, s, ids, true)
	reopened := func(what string, decode bool) {
		t.Helper()
		s := open()
		if decode {
			for _, id := range ids {
				settleAll(t, s.shardFor(id).lookup(id))
			}
		}
		closeStore(s)
		got, want, form := residentBytes(t, s, ids, false), xmlLen, "XML"
		if decode {
			want, form = live, "frames"
		}
		if got != want {
			t.Errorf("reopened from its %s, the store holds %d bytes of base and deltas; want %d, the live store's %s", what, got, want, form)
		}
	}
	reopened("journal", false)
	reopened("journal", true)
	s = open()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	closeStore(s)
	reopened("snapshot", false)
	reopened("snapshot", true)
}

// residentBytes returns Σlen of the bytes ids' bases and deltas hold in
// the closed store s, after measuring what they and the resident
// keyframes (at least one when keyframes is set) keep alive: the live
// heap must fall by at least their Σlen when s lets go of them, and by
// no more than their size classes and a part's header each. It leaves s
// without them.
func residentBytes(t *testing.T, s *Store, ids []string, keyframes bool) int {
	t.Helper()
	const noise = 4 << 10 // the chains' slice arrays, and what the heap may move by between two reads
	// A part's header: the part and its form.
	const header = 8 + 64
	roundUp := func(n int) int { return cap(append([]byte(nil), make([]byte, n)...)) }
	chain, bound := 0, 0
	for _, id := range ids {
		st := s.shardFor(id).lookup(id)
		for _, p := range append([]*part{st.base}, st.deltas...) {
			n := len(p.form.Load().b)
			chain += n
			bound += roundUp(n) + header
		}
	}
	sumLen := chain
	for _, f := range s.cache.frames {
		sumLen += len(f.body)
		bound += roundUp(len(f.body))
	}
	frames := len(s.cache.frames)
	if keyframes && frames == 0 {
		t.Fatal("no keyframe is resident; the check would miss them")
	}
	before := liveHeap()
	for _, id := range ids {
		st := s.shardFor(id).lookup(id)
		st.base, st.deltas = nil, nil
	}
	for id, f := range s.cache.frames {
		f.body = nil
		s.cache.frames[id] = f
	}
	held := before - liveHeap()
	runtime.KeepAlive(s) // the rest of the store is not what is measured
	t.Logf("%d keyframes: Σlen %d, heap held %d, bound %d", frames, sumLen, held, bound)
	if held < sumLen-noise {
		t.Fatalf("dropping %d resident bytes freed only %d: something else keeps them, and the check would miss slack", sumLen, held)
	}
	if held > bound+noise {
		t.Errorf("resident parts of Σlen %d hold %d heap bytes (%.2f×); their size classes allow %d",
			sumLen, held, float64(held)/float64(sumLen), bound)
	}
	return chain
}

// liveHeap returns the bytes in use on the heap after two collections:
// the first only moves sync.Pool contents to the pools' victim caches,
// the second frees them.
func liveHeap() int {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int(ms.HeapAlloc)
}
