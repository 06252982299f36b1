package vstore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/store"
	"xydiff/internal/xid"
	"xydiff/internal/xpathlite"
)

func parse(t *testing.T, s string) *dom.Node {
	t.Helper()
	d, err := dom.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// openTest opens a store under a fresh temp dir with small, fast
// defaults for unit tests.
func openTest(t *testing.T, cfg Config) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

func TestPutAndLatest(t *testing.T) {
	forEachStore(t, testPutAndLatest)
}

func testPutAndLatest(t *testing.T, s *Store) {
	v, d, err := s.Put("doc", parse(t, `<a><b>1</b></a>`))
	if err != nil || v != 1 || d != nil {
		t.Fatalf("first Put = %d,%v,%v", v, d, err)
	}
	v, d, err = s.Put("doc", parse(t, `<a><b>2</b></a>`))
	if err != nil || v != 2 {
		t.Fatalf("second Put = %d,%v", v, err)
	}
	if d == nil || d.Count().Updates != 1 {
		t.Fatalf("second delta = %v", d)
	}
	latest, n, err := s.Latest("doc")
	if err != nil || n != 2 {
		t.Fatalf("Latest = %d,%v", n, err)
	}
	if latest.Root().Children[0].Children[0].Value != "2" {
		t.Fatal("Latest content wrong")
	}
	if s.Versions("doc") != 2 || s.Versions("nope") != 0 {
		t.Fatal("Versions wrong")
	}
	if ids := s.IDs(); len(ids) != 1 || ids[0] != "doc" {
		t.Fatalf("IDs = %v", ids)
	}
	if _, _, err := s.Latest("nope"); !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("Latest(nope) = %v, want ErrUnknownDocument", err)
	}
	if _, err := s.Version("doc", 9); !errors.Is(err, ErrNoSuchVersion) {
		t.Fatalf("Version(doc,9) = %v, want ErrNoSuchVersion", err)
	}
}

// TestPutLeavesCallerTreeUnstamped: Put keeps a copy of what it is
// handed, so the caller's tree carries no XIDs afterwards, for the
// first version and for the diffed ones.
func TestPutLeavesCallerTreeUnstamped(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Store) {
		for _, body := range []string{`<r><a>1</a></r>`, `<r><a>2</a><b/></r>`, `<r><b/><c>3</c></r>`} {
			doc := parse(t, body)
			if _, _, err := s.Put("d", doc); err != nil {
				t.Fatal(err)
			}
			dom.WalkPre(doc, func(n *dom.Node) bool {
				if n.XID != 0 {
					t.Fatalf("Put stamped the caller's %s node with XID %d", n.Type, n.XID)
				}
				return true
			})
		}
	})
}

// TestPutDetailedAllocations: PutDetailed keeps the tree it is handed
// instead of copying it, so on a 7 KB catalog it allocates what its
// diff allocates plus one record, the frame it keeps and a fixed few,
// in allocations and in bytes. The delta is encoded once, straight into
// its record, which is sized from the last delta plus a quarter: the
// record costs at most 1.25 times the delta's XML. A copy of the version is three
// allocations (Clone's slabs), too few for the count to see, but its
// bytes are many times the fixed overhead, so the byte bound catches
// it. The count itself is held too: 411 allocations with a boxed op, an
// XID map per insert and delete and a heap object per pruned node; 14
// once the delta is an op slab and three content slabs. (While the
// delta was encoded into a growing buffer and then copied into its
// record, the bound was the diff plus that encoding, about three times
// the delta's XML, plus the overhead.)
func TestPutDetailedAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("counts allocations through pooled buffers, which the race detector drops at random; the gate runs it without -race")
	}
	const runs = 10
	pair := catalogChain(t, 7000, 2)
	copies := func() []*dom.Node {
		out := make([]*dom.Node, 2*(runs+1))
		for i := range out {
			out[i] = pair[(i+1)%2].Clone()
		}
		return out
	}
	s, err := Open("", diff.Options{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put("d", pair[0]); err != nil {
		t.Fatal(err)
	}
	docs, next := copies(), 0
	var deltaBytes, frameBytes int
	put, putBytes := costPerRun(runs, func() {
		for k := 0; k < 2; k++ {
			r, err := s.PutDetailed(context.Background(), "d", docs[next], "")
			if err != nil {
				t.Fatal(err)
			}
			deltaBytes = max(deltaBytes, r.DeltaBytes)
			next++
		}
	})
	for _, d := range s.shardFor("d").lookup("d").deltas {
		frameBytes = max(frameBytes, len(d.form.Load().b))
	}
	put, putBytes = put/2, putBytes/2

	// The same two diffs outside the store: versions 1 and 2 as the
	// store labelled them, diffed against fresh copies.
	var olds [2]*dom.Node
	for i := range olds {
		if olds[i], err = s.Version("d", i+1); err != nil {
			t.Fatal(err)
		}
	}
	docs, next = copies(), 0
	work, workBytes := costPerRun(runs, func() {
		for k := 0; k < 2; k++ {
			if _, err := diff.DiffDetailedContext(context.Background(), olds[k], docs[next], diff.Options{}); err != nil {
				t.Fatal(err)
			}
			next++
		}
	})
	work, workBytes = work/2, workBytes/2
	_, cloneBytes := costPerRun(runs, func() { pair[0].Clone() })
	// What the Put keeps of the delta is its frame.
	recordBytes := 1.25*float64(deltaBytes) + float64(frameBytes)
	t.Logf("PutDetailed: %.0f allocations, %.0f KB; its diff: %.0f, %.0f KB; one record and the frame kept: at most %.1f KB; one copy of the version: %.0f KB",
		put, putBytes/1024, work, workBytes/1024, recordBytes/1024, cloneBytes/1024)
	const overhead, overheadBytes = 64, 2 << 10
	if cloneBytes <= 2*overheadBytes {
		t.Fatalf("a copy of the version costs %.0f KB, too little for this guard", cloneBytes/1024)
	}
	if put > 15 {
		t.Errorf("PutDetailed allocates %.0f times, want at most 15", put)
	}
	if put > work+overhead {
		t.Errorf("PutDetailed allocates %.0f times, more than its diff (%.0f) plus %d", put, work, overhead)
	}
	if putBytes > workBytes+recordBytes+overheadBytes {
		t.Errorf("PutDetailed allocates %.0f KB, more than its diff (%.0f KB), one record and the frame kept (%.1f KB) and %d KB",
			putBytes/1024, workBytes/1024, recordBytes/1024, overheadBytes>>10)
	}
}

// costPerRun is testing.AllocsPerRun returning allocated bytes too: the
// allocations and bytes of one call of f, averaged over runs calls
// after a warm-up call, with GOMAXPROCS at 1 as AllocsPerRun sets it.
// Goroutines f starts are counted with it.
func costPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func TestVersionsReconstructAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{
		`<log><e>one</e></log>`,
		`<log><e>one</e><e>two</e></log>`,
		`<log><e>two</e><e>three</e></log>`,
		`<log><e>three</e></log>`,
	}
	// Several documents spread across shards, same version chain.
	ids := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for _, id := range ids {
		for _, x := range texts {
			if _, _, err := s.Put(id, parse(t, x)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(s *Store, label string) {
		t.Helper()
		for _, id := range ids {
			if got := s.Versions(id); got != len(texts) {
				t.Fatalf("%s: %s has %d versions, want %d", label, id, got, len(texts))
			}
			for v, want := range texts {
				doc, err := s.Version(id, v+1)
				if err != nil {
					t.Fatalf("%s: %s v%d: %v", label, id, v+1, err)
				}
				if doc.String() != want {
					t.Fatalf("%s: %s v%d = %s, want %s", label, id, v+1, doc.String(), want)
				}
			}
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, diff.Options{}, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2, "reopened")
	rec := s2.RecoveryStats()
	if rec.Documents != len(ids) || rec.JournalRecords != len(ids)*len(texts) {
		t.Fatalf("recovery stats = %+v, want %d documents, %d journal records", rec, len(ids), len(ids)*len(texts))
	}
}

func TestManifestPinsShardCount(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put("doc", parse(t, `<a/>`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Reopen asking for a different count: the manifest wins.
	s2, err := Open(dir, diff.Options{}, Config{Shards: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(s2.shards); got != 3 {
		t.Fatalf("reopened with %d shards, manifest says 3", got)
	}
	if s2.Versions("doc") != 1 {
		t.Fatal("document lost across reopen")
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	s, _ := openTest(t, Config{Shards: 2, Sync: store.SyncAlways})
	const writers = 64
	const putsEach = 4
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("doc-%02d", w)
			for v := 1; v <= putsEach; v++ {
				doc, err := dom.ParseString(fmt.Sprintf(`<r><w>%d</w><v>%d</v></r>`, w, v))
				if err != nil {
					errs <- err
					return
				}
				if _, _, err := s.Put(id, doc); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ds := s.DurabilityStats()
	if ds.Appends != writers*putsEach {
		t.Fatalf("appends = %d, want %d", ds.Appends, writers*putsEach)
	}
	if ds.Syncs >= ds.Appends {
		t.Fatalf("group commit did not batch: %d fsyncs for %d appends", ds.Syncs, ds.Appends)
	}
	ss := s.StorageStats()
	if ss.MaxBatch < 2 {
		t.Fatalf("no batch ever held more than one record (max %d)", ss.MaxBatch)
	}
	if ss.MeanBatch() <= 1 {
		t.Fatalf("mean batch = %f, want > 1", ss.MeanBatch())
	}
	// Everything acked must be readable.
	for w := 0; w < writers; w++ {
		if got := s.Versions(fmt.Sprintf("doc-%02d", w)); got != putsEach {
			t.Fatalf("doc-%02d has %d versions, want %d", w, got, putsEach)
		}
	}
}

func TestQueueSaturationFailsFast(t *testing.T) {
	// White box: a shard with a full queue and no committer draining it
	// must shed the next submission with ErrBusy, not block.
	s := &Store{dir: t.TempDir()}
	sh := &shard{idx: 0, commitCh: make(chan *commitReq, 1)}
	sh.commitCh <- &commitReq{} // fill the queue
	done := make(chan error, 1)
	go func() { done <- s.appendDurable(sh, []byte("rec")) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrBusy) {
			t.Fatalf("err = %v, want ErrBusy", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("appendDurable blocked on a saturated queue")
	}
	if got := sh.stats.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}

func TestCheckpointFoldsSegmentsIntoSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("doc-%d", i)
		for v := 1; v <= 3; v++ {
			if _, _, err := s.Put(id, parse(t, fmt.Sprintf(`<r><v>%d</v></r>`, v))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.StorageStats().Segments; got != 0 {
		t.Fatalf("%d segments remain after Checkpoint, want 0", got)
	}
	// Puts after the checkpoint land in fresh segments.
	if _, _, err := s.Put("doc-0", parse(t, `<r><v>4</v></r>`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, diff.Options{}, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.RecoveryStats()
	if rec.SnapshotVersions != 18 || rec.JournalRecords != 1 {
		t.Fatalf("recovery stats = %+v, want 18 snapshot versions + 1 journal record", rec)
	}
	doc, err := s2.Version("doc-0", 4)
	if err != nil || doc.String() != `<r><v>4</v></r>` {
		t.Fatalf("doc-0 v4 after reopen = %v, %v", doc, err)
	}
	if doc, err := s2.Version("doc-0", 2); err != nil || doc.String() != `<r><v>2</v></r>` {
		t.Fatalf("doc-0 v2 after reopen = %v, %v", doc, err)
	}
}

func TestBackgroundCompaction(t *testing.T) {
	// Tiny segments force rotations; compactSegments=2 makes the
	// background compactor fold them soon after.
	s, _ := openTest(t, Config{Shards: 1, segmentBytes: 256, compactSegments: 2})
	big := `<r><pad>` + strings.Repeat("x", 100) + `</pad><v>%d</v></r>`
	for v := 1; v <= 12; v++ {
		if _, _, err := s.Put("doc", parse(t, fmt.Sprintf(big, v))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.stats.compactions.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background compaction never ran")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The store stays correct regardless of when compaction landed.
	for v := 1; v <= 12; v++ {
		doc, err := s.Version("doc", v)
		if err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		if want := fmt.Sprintf(big, v); doc.String() != want {
			t.Fatalf("v%d reconstructed wrong", v)
		}
	}
	ss := s.StorageStats()
	if ss.CompactionSeconds <= 0 {
		t.Fatalf("compaction seconds = %f, want > 0", ss.CompactionSeconds)
	}
}

func TestVersionCacheHitsAndEviction(t *testing.T) {
	s, _ := openTest(t, Config{Shards: 1, CacheSize: 2})
	ids := []string{"a", "b", "c"}
	for _, id := range ids {
		for v := 1; v <= 3; v++ {
			if _, _, err := s.Put(id, parse(t, fmt.Sprintf(`<r><v>%d</v></r>`, v))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := s.cache.len(); got != 2 {
		t.Fatalf("cache holds %d trees, want 2 (capacity)", got)
	}
	// Reading every document cycles through the cache; evicted entries
	// re-materialize from bytes and stay correct.
	for round := 0; round < 3; round++ {
		for _, id := range ids {
			doc, _, err := s.Latest(id)
			if err != nil {
				t.Fatal(err)
			}
			if doc.String() != `<r><v>3</v></r>` {
				t.Fatalf("%s latest = %s", id, doc.String())
			}
		}
	}
	ss := s.StorageStats()
	if ss.CacheMisses == 0 {
		t.Fatal("capacity-2 cache over 3 documents never missed")
	}
	if ss.CacheHits == 0 {
		t.Fatal("cache never hit")
	}
}

func TestOldLayoutRefusedWithMigrationHint(t *testing.T) {
	for _, name := range legacyFixtures {
		dir := copyFixture(t, name)
		if _, err := Open(dir, diff.Options{}, Config{}); !errors.Is(err, ErrNeedsMigration) {
			t.Fatalf("Open(%s fixture) = %v, want ErrNeedsMigration", name, err)
		}
		if !sameTree(t, fixturePath(name), dir) {
			t.Fatalf("refusing the %s fixture changed it", name)
		}
	}
}

func TestTemporalQueries(t *testing.T) {
	s, _ := openTest(t, Config{Shards: 2})
	texts := []string{
		`<log><e>one</e></log>`,
		`<log><e>one</e><e>two</e></log>`,
		`<log><e>three</e></log>`,
	}
	for _, x := range texts {
		if _, _, err := s.Put("log", parse(t, x)); err != nil {
			t.Fatal(err)
		}
	}
	expr := xpathlite.MustCompile("/log/e")
	tl, err := s.Timeline("log", expr)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != 3 || tl[0].Value != "one" || tl[2].Value != "three" {
		t.Fatalf("timeline = %+v", tl)
	}
	hits, err := s.ChangesMatching("log", 1, 3, expr, delta.KindInsert)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no insert hits across versions 1..3")
	}
	agg, err := s.Aggregate("log", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := s.Version("log", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := delta.Apply(v1, agg); err != nil {
		t.Fatal(err)
	}
	if v1.String() != texts[2] {
		t.Fatalf("aggregate(1,3) applied to v1 = %s, want %s", v1.String(), texts[2])
	}
}

func TestObserverSeesEveryVersion(t *testing.T) {
	s, _ := openTest(t, Config{Shards: 2})
	type obsCall struct {
		id      string
		version int
	}
	var mu sync.Mutex
	var calls []obsCall
	s.SetObserver(func(o Observation) {
		mu.Lock()
		calls = append(calls, obsCall{o.ID, o.Version})
		mu.Unlock()
	})
	for v := 1; v <= 3; v++ {
		if _, _, err := s.Put("doc", parse(t, fmt.Sprintf(`<r><v>%d</v></r>`, v))); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	// The observer fires for versioning diffs only (not the first Put).
	if len(calls) != 2 || calls[0] != (obsCall{"doc", 2}) || calls[1] != (obsCall{"doc", 3}) {
		t.Fatalf("observer calls = %+v", calls)
	}
}

// TestXMLPrefixSurvivesEvictionAndReopen: a document using the xml:
// prefix (any XHTML page) must come back byte-identical once its tree
// is rebuilt from stored bytes — after the cache evicts it, and after
// a restart. When names were rebuilt from resolved URIs the stored
// text held the namespace URI in place of the prefix and did not
// reparse, so both reads failed.
func TestXMLPrefixSurvivesEvictionAndReopen(t *testing.T) {
	checkSurvivesEvictionAndReopen(t,
		`<html xml:lang="en"><body xml:space="preserve"><p>one</p></body></html>`,
		`<html xml:lang="en"><body xml:space="preserve"><p>two</p><p xml:lang="fr">deux</p></body></html>`)
}

// TestCarriageReturnSurvivesEvictionAndReopen: a carriage return in a
// text or attribute value (from a &#13; reference, or an HTML page
// with CRLF line ends, which htmlize keeps) is stored as a reference.
// Stored raw it was read back as a line feed, so the version served
// from stored bytes differed from the one acknowledged.
func TestCarriageReturnSurvivesEvictionAndReopen(t *testing.T) {
	checkSurvivesEvictionAndReopen(t,
		`<pre k="a&#13;&#10;b">one&#13;
two</pre>`,
		`<pre k="a&#13;b">one&#13;
three&#13;</pre>`)
}

// checkSurvivesEvictionAndReopen stores v1 and v2, both in canonical
// form, as two versions of one document and reads v1 back after the
// cache has evicted it and v2 after a checkpoint and restart.
func checkSurvivesEvictionAndReopen(t *testing.T, v1, v2 string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, Config{Shards: 1, CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{v1, v2} {
		if _, _, err := s.Put("page", parse(t, body)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Put("other", parse(t, `<a/>`)); err != nil { // evicts page
		t.Fatal(err)
	}
	got, err := s.Version("page", 1)
	if err != nil {
		t.Fatalf("Version(1) after eviction: %v", err)
	}
	if got.String() != v1 {
		t.Fatalf("Version(1) after eviction = %s", got)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, diff.Options{}, Config{Shards: 1, CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err = s.Version("page", 2)
	if err != nil {
		t.Fatalf("Version(2) after reopen: %v", err)
	}
	if got.String() != v2 {
		t.Fatalf("Version(2) after reopen = %s", got)
	}
}

// TestPutDeltaIsTheDiff: Put copies the document it is given, DOCTYPE
// included, so the delta it stores is the one diff.Diff computes on the
// same parsed pair. Here the DTD declares pid an ID and the products
// swap pids: Phase 1 (paper §5.2) matches them by ID, where a copy
// without the DTD stored two update-attribute ops.
func TestPutDeltaIsTheDiff(t *testing.T) {
	const dtd = `<!DOCTYPE Catalog [<!ATTLIST Product pid ID #REQUIRED>]>`
	v1 := dtd + `<Catalog><Product pid="p1"><Name>xml kit</Name><Price>1200</Price></Product>` +
		`<Product pid="p2"><Name>camera</Name><Price>300</Price></Product></Catalog>`
	v2 := dtd + `<Catalog><Product pid="p2"><Name>xml kit</Name><Price>1200</Price></Product>` +
		`<Product pid="p1"><Name>camera</Name><Price>300</Price></Product></Catalog>`
	s, err := Open("", diff.Options{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{v1, v2} {
		if _, _, err := s.Put("doc", parse(t, body)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Aggregate("doc", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	old := parse(t, v1)
	xid.Assign(old)
	want, err := diff.Diff(old, parse(t, v2), diff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gotText, _ := got.MarshalText()
	wantText, _ := want.MarshalText()
	if string(gotText) != string(wantText) {
		t.Fatalf("Put stored\n %s\ndiff.Diff gives\n %s", gotText, wantText)
	}
	for _, op := range want.Ops {
		if op.Kind == delta.KindUpdateAttr {
			t.Fatalf("diff.Diff updated an ID attribute; Phase 1 did not run:\n %s", wantText)
		}
	}
}
