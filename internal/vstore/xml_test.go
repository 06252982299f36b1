package vstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/faultfs"
	"xydiff/internal/faultfs/faultfstest"
)

// viewXML is what a version GET writes: View's tree serialized, with
// the version View says it is.
func viewXML(s *Store, id string, n int, latest bool) ([]byte, int, error) {
	doc, v, err := s.View(id, n, latest)
	if err != nil {
		return nil, 0, err
	}
	return doc.AppendXML(nil), v, nil
}

// checkXMLReads is a differential test of the two ways to read a
// version: for every version of every document — and for the versions
// just outside 1..versions, and an unknown document — View must give a
// tree that serializes to the bytes Version's tree does, or Version's
// error, and View of the latest version must give Latest's bytes and
// version number. The view goes first, so on a store just opened it is
// the one that meets each cache miss.
func checkXMLReads(t *testing.T, s *Store, ids ...string) {
	t.Helper()
	same := func(what string, body []byte, err error, doc *dom.Node, treeErr error) {
		t.Helper()
		if (err == nil) != (treeErr == nil) || err != nil && err.Error() != treeErr.Error() {
			t.Fatalf("%s: view error %v, tree read error %v", what, err, treeErr)
		}
		if err == nil && string(body) != doc.String() {
			t.Fatalf("%s: view\n %s\ntree read\n %s", what, body, doc)
		}
	}
	ids = append(ids, "no-such-document")
	most := 0
	for _, id := range ids {
		most = max(most, s.Versions(id))
	}
	// Documents take turns, so a one-document cache misses every read.
	for v := 0; v <= most+1; v++ {
		for _, id := range ids {
			if v > s.Versions(id)+1 {
				continue
			}
			body, version, err := viewXML(s, id, v, false)
			doc, treeErr := s.Version(id, v)
			same(fmt.Sprintf("%s version %d", id, v), body, err, doc, treeErr)
			if err == nil && version != v {
				t.Fatalf("%s: View of version %d says version %d", id, v, version)
			}
		}
	}
	for _, id := range ids {
		body, version, err := viewXML(s, id, 0, true)
		doc, treeVersion, treeErr := s.Latest(id)
		same(id+" latest", body, err, doc, treeErr)
		if version != treeVersion {
			t.Fatalf("%s: View says version %d, Latest %d", id, version, treeVersion)
		}
	}
}

// TestXMLReadsMatchTreeReads runs checkXMLReads over a BULD chain and an
// SFTM chain on a live store; on the same directory reopened behind a
// one-document cache, where reads meet full replays (the first miss of
// each document) and keyframe restores (every later one); and on a
// degraded document.
func TestXMLReadsMatchTreeReads(t *testing.T) {
	s, dir := openTest(t, Config{Shards: 1})
	ids := putChains(t, s, 7)
	checkXMLReads(t, s, ids...)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir, diff.Options{}, Config{Shards: 1, CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	checkXMLReads(t, reopened, ids...)
	if ss := reopened.StorageStats(); ss.KeyframeRestores == 0 || ss.CacheMisses <= ss.KeyframeRestores {
		t.Errorf("reads restored %d keyframes in %d misses; want both restores and replays", ss.KeyframeRestores, ss.CacheMisses)
	}

	// A degraded document: its intact versions serve, and asking past
	// them answers DegradedError.
	deg, degDir := openTest(t, Config{Shards: 1, segmentBytes: 1, compactSegments: -1, Scrub: ScrubConfig{Throttle: -1, NoRepair: true}})
	for v := 1; v <= 3; v++ {
		if _, _, err := deg.Put("doc", parse(t, fmt.Sprintf(`<doc><rev>%d</rev></doc>`, v))); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(degDir, "shard-*", "seg-*.log"))
	sort.Strings(segs)
	if err := faultfstest.FlipBit(faultfs.OS{}, segs[1], 12, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := deg.ScrubPass(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ok, _ := deg.Degraded("doc"); !ok {
		t.Fatal("setup: doc not degraded")
	}
	checkXMLReads(t, deg, "doc")
	var de *DegradedError
	if _, _, err := deg.View("doc", deg.Versions("doc")+1, false); !errors.As(err, &de) {
		t.Fatalf("reading past the intact versions: %v, want a DegradedError", err)
	}
}

// TestXMLReadsRace streams one document's latest and past versions,
// aggregates its deltas and puts new versions, all at once. Each body
// must be the version its read names, byte for byte, as the store
// reconstructs it once the writers are done. A latest read takes the
// cached tree and writes it out only after Puts have replaced it and,
// through a second document behind a one-document cache, evicted it
// into a keyframe: the tree a view hands out is never changed in place.
// Run it under -race.
func TestXMLReadsRace(t *testing.T) {
	chain := flipChain(t, 3000, 12)
	s := chainStore(t, Config{Shards: 1, CacheSize: 1}, chain[:4], "doc")
	defer s.Close()
	type read struct {
		version int
		body    []byte
	}
	var (
		mu    sync.Mutex
		reads []read
		wg    sync.WaitGroup
		errs  = make(chan error, 64)
		// replaced is closed once the writer has put every version: the
		// held view's tree is then two Puts and an eviction stale.
		held     = make(chan struct{})
		replaced = make(chan struct{})
	)
	keep := func(v int, body []byte) {
		mu.Lock()
		reads = append(reads, read{v, body})
		mu.Unlock()
	}
	wg.Add(5)
	go func() { // the writer, evicting doc with other's versions
		defer wg.Done()
		defer close(replaced)
		<-held
		for _, doc := range chain[4:] {
			for _, id := range []string{"doc", "other"} {
				if _, _, err := s.Put(id, doc); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	go func() { // a latest read held across the writer's Puts
		defer wg.Done()
		doc, v, err := s.View("doc", 0, true)
		close(held)
		if err != nil {
			errs <- err
			return
		}
		<-replaced
		var b bytes.Buffer
		if _, err := doc.WriteTo(&b); err != nil {
			errs <- err
			return
		}
		keep(v, b.Bytes())
	}()
	go func() { // latest reads, streamed
		defer wg.Done()
		for i := 0; i < 40; i++ {
			doc, v, err := s.View("doc", 0, true)
			if err != nil {
				errs <- err
				return
			}
			var b bytes.Buffer
			if _, err := doc.WriteTo(&b); err != nil {
				errs <- err
				return
			}
			keep(v, b.Bytes())
		}
	}()
	go func() { // past reads
		defer wg.Done()
		for i := 0; i < 40; i++ {
			body, v, err := viewXML(s, "doc", 1+i%4, false)
			if err != nil {
				errs <- err
				return
			}
			keep(v, body)
		}
	}()
	go func() { // aggregates
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := s.Aggregate("doc", 1+i%4, 4-i%4); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, r := range reads {
		doc, err := s.Version("doc", r.version)
		if err != nil {
			t.Fatal(err)
		}
		if string(r.body) != doc.String() {
			t.Fatalf("a concurrent read of version %d served other bytes", r.version)
		}
	}
	if s.StorageStats().KeyframeRestores == 0 {
		t.Error("no read restored a keyframe: the cached tree was never evicted")
	}
}

// TestLatestXMLCopiesNoTree pins that streaming the latest version
// copies no tree and buffers no body: View hands out the cached tree
// and WriteTo writes it through the encoder's pooled flush buffer, so
// the read allocates next to nothing, whatever the document's size. (A
// copy of a ~130 KB catalog is thousands of allocations; a body buffer
// was one allocation of the body's size.)
func TestLatestXMLCopiesNoTree(t *testing.T) {
	allocs := func(size int) float64 {
		s := chainStore(t, Config{Shards: 1}, catalogChain(t, size, 3), "doc")
		defer s.Close()
		return testing.AllocsPerRun(20, func() {
			doc, _, err := s.View("doc", 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := doc.WriteTo(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(7000), allocs(130000)
	t.Logf("latest view streamed: %.0f allocations at 7 KB, %.0f at 130 KB", small, large)
	if large > small || large > 2 {
		t.Errorf("streaming the latest version allocates %.0f times at 130 KB and %.0f at 7 KB; want at most 2, not growing with size", large, small)
	}
}

// TestVersionStreamAllocations pins that a version GET streams its
// body rather than buffering it: reading version 2 of the 150 KB
// catalog chain by number — the latest, whose tree the cache holds —
// and writing it to io.Discard allocates fewer bytes than the body has.
// View hands out the cached tree and WriteTo writes it through the
// encoder's pooled flush buffer. (When the body was gathered in a
// buffer sized from version 1, that buffer alone was version 1's length
// plus an eighth.)
func TestVersionStreamAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("counts allocations through pooled buffers, which the race detector drops at random; the gate runs it without -race")
	}
	s := chainStore(t, Config{Shards: 1}, catalogChain(t, 150_000, 2), "doc")
	defer s.Close()
	body, _, err := viewXML(s, "doc", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	stream := func() {
		doc, _, err := s.View("doc", 2, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := doc.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	stream()
	var before, after runtime.MemStats
	const runs = 10
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		stream()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("streaming version 2 (%d bytes) allocates %.0f bytes", len(body), bytes)
	if bytes >= float64(len(body)) {
		t.Errorf("streaming version 2 allocates %.0f bytes, want fewer than its %d-byte body", bytes, len(body))
	}
}

// TestOldDocumentReads: a document with 2 000 versions at 5% churn has
// handed out many times more XIDs than it has nodes, spread over the
// whole range. A read of it must cost no more than twice what the same
// read of a young document of the same content costs, in allocations
// and in bytes — the XID table's pages follow the XIDs in use.
func TestOldDocumentReads(t *testing.T) {
	if testing.Short() {
		t.Skip("2 000 Puts")
	}
	const versions = 2000
	s, err := Open("", diff.Options{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	doc := changesim.CatalogOfSize(rand.New(rand.NewSource(2000)), 6000)
	target := doc.Size()
	var chain []*dom.Node
	for v := 1; v <= versions; v++ {
		if _, _, err := s.Put("old", doc); err != nil {
			t.Fatal(err)
		}
		chain = append(chain[max(len(chain)-4, 0):], doc)
		// 5% churn. Deletes take whole subtrees and inserts add one
		// node, so below its first size the document only grows.
		p := changesim.Uniform(0.05, int64(v))
		if doc.Size() < target {
			p.DeleteProb, p.InsertProb = 0, 0.10
		}
		res, err := changesim.Simulate(doc, p)
		if err != nil {
			t.Fatal(err)
		}
		doc = res.New
	}
	for _, d := range chain {
		if _, _, err := s.Put("young", d); err != nil {
			t.Fatal(err)
		}
	}
	latest, _, err := s.Latest("old")
	if err != nil {
		t.Fatal(err)
	}
	var maxXID int64
	dom.WalkPre(latest, func(n *dom.Node) bool { maxXID = max(maxXID, n.XID); return true })
	nodes := latest.Size()
	if maxXID < 20*int64(nodes) {
		t.Fatalf("setup: the old document's largest XID is %d for %d nodes, want many times more", maxXID, nodes)
	}
	cost := func(id string, n int) (allocs, bytes float64) {
		read := func() {
			if _, _, err := s.View(id, n, false); err != nil {
				t.Fatal(err)
			}
		}
		read()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 20
		for i := 0; i < runs; i++ {
			read()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	oldAllocs, oldBytes := cost("old", versions-2)
	// Two versions back of five, so the young read, too, steps back
	// from the latest version rather than starting from version 1.
	youngAllocs, youngBytes := cost("young", 3)
	t.Logf("%d nodes, largest XID %d: reading two versions back costs %.0f allocations and %.0f KB on the old document, %.0f and %.0f KB on the young one",
		nodes, maxXID, oldAllocs, oldBytes/1024, youngAllocs, youngBytes/1024)
	if oldAllocs > 2*youngAllocs || oldBytes > 2*youngBytes {
		t.Errorf("a read of the old document costs %.0f allocations and %.0f KB, more than twice the young one's %.0f and %.0f KB",
			oldAllocs, oldBytes/1024, youngAllocs, youngBytes/1024)
	}
}
