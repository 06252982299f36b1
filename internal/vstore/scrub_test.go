package vstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xydiff/internal/diff"
	"xydiff/internal/faultfs"
	"xydiff/internal/faultfs/faultfstest"
)

// scrubCfg is a one-shard store that rotates the segment after every
// record (so sealed segments exist without compaction) and never
// compacts on its own — each test controls folding explicitly.
func scrubCfg() Config {
	return Config{
		Shards:          1,
		segmentBytes:    1,
		compactSegments: -1,
		Scrub:           ScrubConfig{Throttle: -1},
	}
}

// seedDoc writes n versions of one document and returns the serialized
// form of every version — the ground truth every corruption test
// byte-compares against afterwards.
func seedDoc(t *testing.T, s *Store, id string, n int) []string {
	t.Helper()
	var want []string
	for v := 1; v <= n; v++ {
		body := fmt.Sprintf(`<doc><rev>%d</rev><body>payload %d</body></doc>`, v, v)
		if _, _, err := s.Put(id, parse(t, body)); err != nil {
			t.Fatalf("Put v%d: %v", v, err)
		}
		doc, err := s.Version(id, v)
		if err != nil {
			t.Fatalf("Version(%d): %v", v, err)
		}
		want = append(want, doc.String())
	}
	return want
}

// checkVersions compares every reconstructable version against the
// ground truth captured before corruption.
func checkVersions(t *testing.T, s *Store, id string, want []string) {
	t.Helper()
	for v := 1; v <= len(want); v++ {
		doc, err := s.Version(id, v)
		if err != nil {
			t.Fatalf("Version(%s,%d): %v", id, v, err)
		}
		if got := doc.String(); got != want[v-1] {
			t.Fatalf("version %d diverged after scrub:\n got %s\nwant %s", v, got, want[v-1])
		}
	}
}

// sealedSegs lists the shard-000 sealed segment paths (all but the
// highest sequence, which is the active one).
func sealedSegs(t *testing.T, dir string) []string {
	t.Helper()
	shardDir := filepath.Join(dir, shardDirName(0))
	entries, err := os.ReadDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	if len(names) < 2 {
		t.Fatalf("want ≥2 segments for a sealed victim, have %v", names)
	}
	var paths []string
	for _, n := range names[:len(names)-1] {
		paths = append(paths, filepath.Join(shardDir, n))
	}
	return paths
}

func TestScrubCleanPass(t *testing.T) {
	s, _ := openTest(t, scrubCfg())
	want := seedDoc(t, s, "doc", 4)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seedDoc(t, s, "doc2", 2) // fresh sealed segments after the checkpoint

	rep, err := s.ScrubPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Found != 0 {
		t.Fatalf("clean store reported damage: %+v", rep.Findings)
	}
	if rep.SnapshotsScanned == 0 || rep.SegmentsScanned == 0 {
		t.Fatalf("pass skipped files: %+v", rep)
	}
	if rep.BytesScanned == 0 || rep.RecordsVerified == 0 {
		t.Fatalf("no verification volume: %+v", rep)
	}
	st := s.StorageStats()
	if st.Scrub.Cycles != 1 || st.Scrub.BytesScanned != rep.BytesScanned || st.Scrub.LastUnix == 0 {
		t.Fatalf("counters not folded into stats: %+v", st.Scrub)
	}
	checkVersions(t, s, "doc", want)
}

func TestScrubRepairsCorruptSealedSegment(t *testing.T) {
	s, dir := openTest(t, scrubCfg())
	want := seedDoc(t, s, "doc", 5)

	victim := sealedSegs(t, dir)[0]
	if err := faultfstest.FlipBit(faultfs.OS{}, victim, 12, 3); err != nil {
		t.Fatal(err)
	}
	rep, err := s.ScrubPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Found == 0 || rep.Repaired == 0 || rep.Quarantined != 0 {
		t.Fatalf("want repair, got %+v", rep)
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		t.Fatalf("damaged segment still on disk: %v", err)
	}
	if deg, _ := s.Degraded("doc"); deg {
		t.Fatal("repaired document marked degraded")
	}
	checkVersions(t, s, "doc", want)

	// The repaired layout must also survive a reopen byte-identically.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, diff.Options{}, scrubCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkVersions(t, s2, "doc", want)
	if rep2, _ := s2.ScrubPass(context.Background()); rep2.Found != 0 {
		t.Fatalf("repaired store still reports damage: %+v", rep2.Findings)
	}
}

func TestScrubQuarantinesSegmentWithoutRepair(t *testing.T) {
	cfg := scrubCfg()
	cfg.Scrub.NoRepair = true
	s, dir := openTest(t, cfg)
	want := seedDoc(t, s, "doc", 4)

	victim := sealedSegs(t, dir)[0]
	if err := faultfstest.ZeroRange(faultfs.OS{}, victim, 4, 4); err != nil {
		t.Fatal(err)
	}
	rep, err := s.ScrubPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined == 0 || rep.Repaired != 0 {
		t.Fatalf("want quarantine, got %+v", rep)
	}
	if _, err := os.Stat(victim + quarantineSuffix); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		t.Fatal("original damaged file still present")
	}
	// Un-snapshotted history relied on that segment: the document is
	// flagged degraded, but its resident chain keeps serving every
	// version while the store stays open.
	if deg, reason := s.Degraded("doc"); !deg || !strings.Contains(reason, "quarantined") {
		t.Fatalf("Degraded = %v, %q", deg, reason)
	}
	if s.degradedDocs() != 1 {
		t.Fatalf("DegradedDocs = %d", s.degradedDocs())
	}
	checkVersions(t, s, "doc", want)
	st := s.StorageStats()
	if st.Quarantined != 1 || st.DegradedDocs != 1 {
		t.Fatalf("stats = quarantined %d degraded %d", st.Quarantined, st.DegradedDocs)
	}
}

func TestScrubRepairsCorruptSnapshot(t *testing.T) {
	s, dir := openTest(t, scrubCfg())
	want := seedDoc(t, s, "doc", 4)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, shardDirName(0), docsDirName, escapeID("doc"))
	for _, victim := range []string{"v1.xml", deltaFile(2), sumsName} {
		if err := faultfstest.FlipBit(faultfs.OS{}, filepath.Join(sub, victim), 3, 0); err != nil {
			t.Fatal(err)
		}
		rep, err := s.ScrubPass(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Found != 1 || rep.Repaired != 1 {
			t.Fatalf("corrupt %s: want 1 repair, got %+v", victim, rep)
		}
		if rep2, _ := s.ScrubPass(context.Background()); rep2.Found != 0 {
			t.Fatalf("after repairing %s still damaged: %+v", victim, rep2.Findings)
		}
		checkVersions(t, s, "doc", want)
	}

	// The rewritten snapshot must be what recovery reads back.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, diff.Options{}, scrubCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkVersions(t, s2, "doc", want)
}

func TestScrubQuarantinesSnapshotWithoutRepair(t *testing.T) {
	cfg := scrubCfg()
	cfg.Scrub.NoRepair = true
	s, dir := openTest(t, cfg)
	want := seedDoc(t, s, "doc", 3)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, shardDirName(0), docsDirName, escapeID("doc"))
	if err := faultfstest.TruncateTail(faultfs.OS{}, filepath.Join(sub, "v1.xml"), 5); err != nil {
		t.Fatal(err)
	}
	rep, err := s.ScrubPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 {
		t.Fatalf("want 1 quarantine, got %+v", rep)
	}
	if _, err := os.Stat(sub + quarantineSuffix); err != nil {
		t.Fatalf("quarantined snapshot dir missing: %v", err)
	}
	if deg, _ := s.Degraded("doc"); !deg {
		t.Fatal("document not degraded after snapshot quarantine")
	}
	// The resident chain still serves everything…
	checkVersions(t, s, "doc", want)
	// …and the next compaction writes a fresh full snapshot, after
	// which a pass is clean again.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if rep2, _ := s.ScrubPass(context.Background()); rep2.Found != 0 {
		t.Fatalf("rewritten snapshot still damaged: %+v", rep2.Findings)
	}
}

func TestDegradedErrorShape(t *testing.T) {
	err := error(&DegradedError{id: "doc", Reason: "segment quarantined", Intact: 3})
	var de *DegradedError
	if !errors.As(err, &de) || de.Intact != 3 {
		t.Fatalf("errors.As = %+v", de)
	}
	if msg := err.Error(); !strings.Contains(msg, "doc") || !strings.Contains(msg, "degraded") {
		t.Fatalf("Error() = %q", msg)
	}
}

func TestBackgroundScrubberRunsAndStops(t *testing.T) {
	cfg := scrubCfg()
	cfg.Scrub.Interval = 10 * time.Millisecond
	s, dir := openTest(t, cfg)
	seedDoc(t, s, "doc", 3)
	victim := sealedSegs(t, dir)[0]
	if err := faultfstest.FlipBit(faultfs.OS{}, victim, 10, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.StorageStats(); st.Scrub.Repaired >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background scrubber never repaired; stats %+v", s.StorageStats().Scrub)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		t.Fatal("damaged segment still present after background repair")
	}
	if err := s.Close(); err != nil { // must stop the runner cleanly
		t.Fatal(err)
	}
}

func TestScrubLoopLifecycle(t *testing.T) {
	cfg := scrubCfg()
	cfg.Scrub.Interval = time.Millisecond
	s, _ := openTest(t, cfg)
	seedDoc(t, s, "doc", 2)
	cycles := func() int64 { return s.StorageStats().Scrub.Cycles }
	deadline := time.Now().Add(5 * time.Second)
	for cycles() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if cycles() < 3 {
		t.Fatal("scrub loop never cycled")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	after := cycles()
	time.Sleep(20 * time.Millisecond)
	if cycles() != after {
		t.Fatal("scrub loop kept cycling after Close")
	}
}

// snapshotReads is the real filesystem, closing started at the first
// read of a snapshot file once armed.
type snapshotReads struct {
	faultfs.OS
	armed   atomic.Bool
	once    sync.Once
	started chan struct{}
}

func (f *snapshotReads) ReadFile(path string) ([]byte, error) {
	if f.armed.Load() && strings.Contains(path, docsDirName) {
		f.once.Do(func() { close(f.started) })
	}
	return f.OS.ReadFile(path)
}

// TestCloseCancelsScrubCycle closes a store while a scrub cycle paced
// at 20 B/s is reading its snapshot, seconds of throttle sleep away
// from its end: Close must end the cycle, not wait it out.
func TestCloseCancelsScrubCycle(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	seedDoc(t, s, "doc", 1)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fsys := &snapshotReads{started: make(chan struct{})}
	s, err = Open(dir, diff.Options{}, Config{Shards: 1, FS: fsys, Scrub: ScrubConfig{Interval: 10 * time.Millisecond, Throttle: 20}})
	if err != nil {
		t.Fatal(err)
	}
	fsys.armed.Store(true)
	select {
	case <-fsys.started:
	case <-time.After(5 * time.Second):
		t.Fatal("no scrub cycle started")
	}
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v waiting out the scrub cycle", took)
	}
}

func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-00000001.log")
	if err := os.WriteFile(path, []byte("damaged"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := quarantine(faultfs.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if got != path+quarantineSuffix {
		t.Fatalf("quarantined to %q, want %q", got, path+quarantineSuffix)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("original still present: %v", err)
	}
	b, err := os.ReadFile(got)
	if err != nil || string(b) != "damaged" {
		t.Fatalf("quarantined bytes = %q, %v — quarantine must preserve, never delete", b, err)
	}

	// Quarantining a new file under the same name must not clobber the
	// first quarantine.
	if err := os.WriteFile(path, []byte("damaged again"), 0o644); err != nil {
		t.Fatal(err)
	}
	got2, err := quarantine(faultfs.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if got2 == got {
		t.Fatalf("second quarantine reused %q", got)
	}
	if b, _ := os.ReadFile(got); string(b) != "damaged" {
		t.Fatal("second quarantine clobbered the first")
	}
	if b, _ := os.ReadFile(got2); string(b) != "damaged again" {
		t.Fatalf("second quarantine content = %q", b)
	}
}

func TestThrottlePaces(t *testing.T) {
	th := newThrottle(1000) // 1000 B/s, burst 1000
	var slept time.Duration
	th.sleep = func(ctx context.Context, d time.Duration) error {
		slept += d
		return nil
	}
	ctx := context.Background()
	// First 1000 bytes ride the initial burst; the next 500 must wait
	// about half a second.
	if err := th.take(ctx, 1000); err != nil {
		t.Fatal(err)
	}
	if slept != 0 {
		t.Fatalf("burst take slept %v", slept)
	}
	if err := th.take(ctx, 500); err != nil {
		t.Fatal(err)
	}
	if slept < 400*time.Millisecond || slept > 600*time.Millisecond {
		t.Fatalf("500-byte overdraft slept %v, want ~500ms", slept)
	}
}

func TestThrottleNilAndCancel(t *testing.T) {
	var nilTh *throttle
	if err := nilTh.take(context.Background(), 1<<40); err != nil {
		t.Fatalf("nil throttle must be unlimited: %v", err)
	}
	th := newThrottle(1) // 1 B/s: the take must block on sleep
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := th.take(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled take returned %v", err)
	}
}

func TestReportNote(t *testing.T) {
	var r ScrubReport
	r.note(ScrubFinding{Path: "a", Action: scrubRepaired})
	r.note(ScrubFinding{Path: "b", Action: scrubQuarantined})
	r.note(ScrubFinding{Path: "c", Action: scrubDetected})
	if r.Found != 3 || r.Repaired != 1 || r.Quarantined != 1 {
		t.Fatalf("counters %+v", r)
	}
	if len(r.Findings) != 3 {
		t.Fatalf("findings %d", len(r.Findings))
	}
}

// TestScrubDoesNotStallPuts puts a version of a document while a scrub
// cycle paced at 20 B/s is reading its snapshot, seconds of throttle
// sleep away from its end: the Put must not wait for the cycle. (With
// the snapshot read under the document's read lock, it waited until
// Close canceled the cycle.)
func TestScrubDoesNotStallPuts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	seedDoc(t, s, "doc", 1)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fsys := &snapshotReads{started: make(chan struct{})}
	s, err = Open(dir, diff.Options{}, Config{Shards: 1, FS: fsys, Scrub: ScrubConfig{Interval: 10 * time.Millisecond, Throttle: 20}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fsys.armed.Store(true)
	select {
	case <-fsys.started:
	case <-time.After(5 * time.Second):
		t.Fatal("no scrub cycle started")
	}
	time.Sleep(20 * time.Millisecond) // into the throttle's sleep
	doc := parse(t, `<doc><rev>2</rev><body>payload 2</body></doc>`)
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, _, err := s.Put("doc", doc)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Fatalf("a Put during a scrub cycle took %v", took)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("a Put during a scrub cycle waits on the cycle's throttle")
	}
}
