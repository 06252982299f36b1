package vstore

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/faultfs"
	"xydiff/internal/faultfs/faultfstest"
	"xydiff/internal/store"
)

// The PR-2 crash matrix, extended to segment logs: the filesystem dies
// at every write, sync, rename, remove and open along a workload that
// exercises group-committed appends, segment rotation, checkpointing
// (snapshot + retirement) and post-checkpoint appends. The contract is
// unchanged — every version acknowledged before the crash reconstructs
// byte-identically after reopening, and a crash never reads back as
// corruption.

// ackedVersion is one Put the store acknowledged before the crash.
type ackedVersion struct {
	id      string
	version int
	want    string // serialized reconstruction at acknowledgement time
}

// crashCfg keeps the matrix small and rotation-happy: few shards, tiny
// segments so the workload crosses segment boundaries.
func crashCfg(fsys faultfs.FS) Config {
	return Config{
		Shards:          2,
		Sync:            store.SyncAlways,
		segmentBytes:    192,
		compactSegments: -1, // deterministic: no background compactor
		FS:              fsys,
	}
}

// crashWorkload drives a fixed Put/Checkpoint sequence over fsys,
// recording every acknowledged version. It stops at the first injected
// failure (the simulated process is dead) and never fails the test for
// store errors — those are the point.
func crashWorkload(t *testing.T, dir string, fsys faultfs.FS) []ackedVersion {
	t.Helper()
	s, err := Open(dir, diff.Options{}, crashCfg(fsys))
	if err != nil {
		return nil
	}
	defer s.Close()
	var acked []ackedVersion
	record := func(id string, v int) bool {
		doc, err := s.Version(id, v)
		if err != nil {
			t.Fatalf("reconstruct just-acknowledged %s v%d: %v", id, v, err)
		}
		acked = append(acked, ackedVersion{id: id, version: v, want: doc.String()})
		return true
	}
	put := func(id, xml string) bool {
		v, _, err := s.Put(id, parse(t, xml))
		return err == nil && record(id, v)
	}
	steps := []func() bool{
		// Phase 1: segment appends across both shards.
		func() bool { return put("a", `<r><x>1</x></r>`) },
		func() bool { return put("a", `<r><x>2</x><y/></r>`) },
		func() bool { return put("b", `<doc><only/></doc>`) },
		func() bool { return put("c", `<list><i>1</i><i>2</i></list>`) },
		// Phase 2: snapshot + retirement.
		func() bool { return s.Checkpoint() == nil },
		// Phase 3: appends after the checkpoint (delta-only segments).
		func() bool { return put("a", `<r><x>3</x></r>`) },
		func() bool { return put("b", `<doc><only/><more/></doc>`) },
		func() bool { return s.Checkpoint() == nil },
	}
	for _, step := range steps {
		if !step() {
			break
		}
	}
	return acked
}

// verifyAcked reopens dir through the real filesystem and checks that
// every version the crashed run acknowledged reconstructs identically.
func verifyAcked(t *testing.T, dir string, acked []ackedVersion, scenario string) {
	t.Helper()
	s, err := Open(dir, diff.Options{}, Config{Shards: 2, compactSegments: -1})
	if err != nil {
		var ce *corruptError
		if errors.As(err, &ce) {
			t.Fatalf("%s: crash produced data recovery calls corrupt: %v", scenario, err)
		}
		t.Fatalf("%s: reopen after crash: %v", scenario, err)
	}
	defer s.Close()
	for _, a := range acked {
		doc, err := s.Version(a.id, a.version)
		if err != nil {
			t.Errorf("%s: acknowledged %s v%d lost: %v", scenario, a.id, a.version, err)
			continue
		}
		if got := doc.String(); got != a.want {
			t.Errorf("%s: %s v%d differs after crash:\n got %q\nwant %q",
				scenario, a.id, a.version, got, a.want)
		}
	}
}

// TestCrashMatrix crashes the filesystem at every write, sync, rename,
// remove and open along the workload (appends, rotation, snapshot,
// retirement, more appends) and asserts that reopening reconstructs
// every acknowledged version byte-identically. The rename and remove
// columns are exactly the "crash between snapshot rename and segment
// retirement" scenarios.
func TestCrashMatrix(t *testing.T) {
	// Counting pass: how many of each op does the clean workload issue?
	clean := faultfstest.Wrap(faultfs.OS{})
	cleanAcked := crashWorkload(t, t.TempDir(), clean)
	if len(cleanAcked) != 6 {
		t.Fatalf("clean workload acknowledged %d versions, want 6", len(cleanAcked))
	}
	for _, op := range []faultfstest.Op{faultfstest.OpWrite, faultfstest.OpSync, faultfstest.OpRename, faultfstest.OpRemove, faultfstest.OpOpen} {
		total := clean.Count(op)
		if total == 0 {
			t.Fatalf("clean workload performs no %s ops; matrix would be vacuous", op)
		}
		for k := 1; k <= total; k++ {
			scenario := fmt.Sprintf("crash at %s #%d/%d", op, k, total)
			dir := t.TempDir()
			fsys := faultfstest.Wrap(faultfs.OS{}, &faultfstest.Fault{Op: op, Countdown: k, Crash: true})
			acked := crashWorkload(t, dir, fsys)
			verifyAcked(t, dir, acked, scenario)
		}
	}
}

// TestCrashCompressingV1Directory crashes the filesystem at every
// write, sync, rename, remove and open while a vstore-v1 directory
// (raw snapshots, segment tails) gets its first compressed files, and
// while a vstore-v2 one (gzip members, segment tails) gets its first
// dictionary files, in both orders: a checkpoint that rewrites the
// manifest and folds the tails, and a full rewrite of every snapshot,
// the scrubber's repair path, which turns raw or gzip files into the
// current encodings in place. Whatever point the crash hits, a strict
// reopen serves every version (and every delta the fixture pins)
// byte-identically: the manifest goes v3 before any new file exists,
// and the checksum manifest, with lengths, lands before the files it
// describes.
func TestCrashCompressingV1Directory(t *testing.T) {
	for _, fixture := range []string{"v1", "v2"} {
		crashCompressing(t, fixture)
	}
}

func crashCompressing(t *testing.T, fixture string) {
	want, deltas := fixtureDigests(t, fixture)
	rewrite := func(s *Store) error {
		for _, sh := range s.shards {
			for id, st := range sh.docs {
				sh.compactMu.Lock()
				err := s.snapshotDoc(sh, id, st, true)
				sh.compactMu.Unlock()
				if err != nil {
					return err
				}
			}
		}
		return nil
	}
	checkpoint := func(s *Store) error { return s.Checkpoint() }
	ops := []faultfstest.Op{faultfstest.OpWrite, faultfstest.OpSync, faultfstest.OpRename, faultfstest.OpRemove, faultfstest.OpOpen}
	for _, steps := range [][]func(*Store) error{{checkpoint, rewrite}, {rewrite, checkpoint}} {
		workload := func(dir string, fsys faultfs.FS, arm func()) {
			s, err := Open(dir, diff.Options{}, Config{compactSegments: -1, FS: fsys})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			arm()
			for _, step := range steps {
				if step(s) != nil {
					return
				}
			}
		}
		clean := faultfstest.Wrap(faultfs.OS{})
		before := map[faultfstest.Op]int{}
		workload(copyDir(t, filepath.Join("testdata", fixture, "store")), clean, func() {
			for _, op := range ops {
				before[op] = clean.Count(op)
			}
		})
		for _, op := range ops {
			total := clean.Count(op) - before[op]
			for k := 1; k <= total; k++ {
				dir := copyDir(t, filepath.Join("testdata", fixture, "store"))
				fault := &faultfstest.Fault{Op: op, Crash: true} // armed once open
				workload(dir, faultfstest.Wrap(faultfs.OS{}, fault), func() { fault.Countdown = k })
				s, err := Open(dir, diff.Options{}, Config{compactSegments: -1})
				if err != nil {
					t.Fatalf("%s: crash at %s #%d/%d: reopen: %v", fixture, op, k, total, err)
				}
				checkServes(t, s, want, deltas)
				s.Close()
			}
		}
	}
}

// TestCrashTornWrite is the short-write variant: the crash persists
// only a prefix of a segment append, which recovery must truncate away
// as a torn tail.
func TestCrashTornWrite(t *testing.T) {
	clean := faultfstest.Wrap(faultfs.OS{})
	crashWorkload(t, t.TempDir(), clean)
	total := clean.Count(faultfstest.OpWrite)
	for k := 1; k <= total; k++ {
		for _, short := range []int{1, 7, 40} {
			scenario := fmt.Sprintf("torn write #%d/%d after %d bytes", k, total, short)
			dir := t.TempDir()
			fsys := faultfstest.Wrap(faultfs.OS{}, &faultfstest.Fault{
				Op: faultfstest.OpWrite, Countdown: k, ShortBytes: short, Crash: true,
			})
			acked := crashWorkload(t, dir, fsys)
			verifyAcked(t, dir, acked, scenario)
		}
	}
}

// TestCrashTornBatchMidGroupCommit is the sharded engine's new failure
// mode: concurrent writers group-commit into one segment append, and
// the crash tears that multi-record batch mid-write. Acknowledged Puts
// (from earlier durable batches) must survive; the Puts in the torn
// batch never got an acknowledgement, so recovery truncating them away
// loses nothing.
func TestCrashTornBatchMidGroupCommit(t *testing.T) {
	const writers = 16
	for _, short := range []int{3, 25, 120} {
		for k := 2; k <= 6; k++ {
			scenario := fmt.Sprintf("torn batch at write #%d, %d bytes persisted", k, short)
			dir := t.TempDir()
			fsys := faultfstest.Wrap(faultfs.OS{}, &faultfstest.Fault{
				Op: faultfstest.OpWrite, Countdown: k, ShortBytes: short, Crash: true,
			})
			cfg := crashCfg(fsys)
			cfg.Shards = 1 // all writers group-commit into one segment
			s, err := Open(dir, diff.Options{}, cfg)
			if err != nil {
				t.Fatalf("%s: open: %v", scenario, err)
			}
			var mu sync.Mutex
			var acked []ackedVersion
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					id := fmt.Sprintf("doc-%02d", w)
					for v := 1; v <= 3; v++ {
						xml := fmt.Sprintf(`<r><w>%d</w><v>%d</v></r>`, w, v)
						doc, perr := dom.ParseString(xml)
						if perr != nil {
							return
						}
						if _, _, perr := s.Put(id, doc); perr != nil {
							return // crashed mid-run: stop like a dead client
						}
						mu.Lock()
						acked = append(acked, ackedVersion{id: id, version: v, want: xml})
						mu.Unlock()
					}
				}(w)
			}
			wg.Wait()
			s.Close()
			verifyAcked(t, dir, acked, scenario)
		}
	}
}
