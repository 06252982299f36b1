package vstore

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"xydiff/internal/faultfs"
)

// Compaction folds a shard's sealed segments into per-document
// snapshots and deletes the segments, bounding both recovery replay
// and disk growth. The crash-safety discipline, per shard:
//
//  1. seal the active segment, so every on-disk segment is frozen;
//  2. snapshot every document whose snapshot is behind, each file
//     (each content file compressed against the chain before it,
//     snapfile.go) written to a temp name, fsynced, and renamed into
//     place, with the version counter renamed last;
//  3. only then retire (delete) the sealed segments.
//
// A crash at any point leaves either the segments (snapshot not yet
// authoritative — replay covers everything) or the snapshot plus
// not-yet-deleted segments (replay skips covered records). The xyvet
// segorder analyzer enforces the snapshot-before-retire and
// sync-before-rename orderings in this file.

// Checkpoint compacts every shard: after it returns, the snapshots
// alone reconstruct every version, and the segment journals hold only
// versions installed after the checkpoint began. A store without a
// directory has nothing to compact.
func (s *Store) Checkpoint() error {
	if s.dir == "" {
		return nil
	}
	start := time.Now()
	for _, sh := range s.shards {
		if err := s.compactShard(sh); err != nil {
			return err
		}
	}
	s.stats.checkpoints.Add(1)
	s.stats.compactions.Add(1)
	s.stats.compactNanos.Add(time.Since(start).Nanoseconds())
	return nil
}

// signalCompact nudges the background compaction loop; called from the
// segment writer's onSeal hook whenever a rotation seals a segment.
func (s *Store) signalCompact() {
	if s.compactCh == nil {
		return
	}
	select {
	case s.compactCh <- struct{}{}:
	default:
	}
}

// compactLoop is the background compactor: whenever a segment seals it
// scans the shards and compacts any that accumulated compactSegments
// or more sealed segments, until Close cancels ctx.
func (s *Store) compactLoop(ctx context.Context) {
	defer s.loops.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.compactCh:
		}
		for _, sh := range s.shards {
			if len(s.sealedSegments(sh)) < s.cfg.compactSegments {
				continue
			}
			start := time.Now()
			if err := s.compactShard(sh); err != nil {
				// Background compaction is advisory; the segments stay
				// and the next seal retries. Durability is unaffected.
				continue
			}
			s.stats.compactions.Add(1)
			s.stats.compactNanos.Add(time.Since(start).Nanoseconds())
		}
	}
}

// segmentsOnDisk lists the shard's segment sequence numbers, sorted.
func (sh *shard) segmentsOnDisk(fsys faultfs.FS) []int {
	entries, err := fsys.ReadDir(sh.dir)
	if err != nil {
		return nil
	}
	var seqs []int
	for _, e := range entries {
		if seq, ok := parseSegName(e.Name()); ok && !e.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs
}

// sealedSegments lists the shard's sealed (non-active) segment
// sequence numbers.
func (s *Store) sealedSegments(sh *shard) []int {
	active, open := sh.seg.activeSeq()
	var sealed []int
	for _, seq := range sh.segmentsOnDisk(s.fs) {
		if open && seq == active {
			continue
		}
		sealed = append(sealed, seq)
	}
	return sealed
}

// compactShard folds one shard's sealed segments into snapshots and
// retires them. compactMu serializes Checkpoint with the background
// compactor for this shard; Puts keep flowing into the (new) active
// segment throughout, pausing only per document while its snapshot is
// written.
func (s *Store) compactShard(sh *shard) error {
	sh.compactMu.Lock()
	defer sh.compactMu.Unlock()
	if err := sh.seg.seal(); err != nil {
		return fmt.Errorf("vstore: seal shard %d: %w", sh.idx, err)
	}
	// Everything on disk is now frozen: records still arriving go to
	// the next sequence number. List the sealed set BEFORE snapshotting
	// so a rotation during the snapshots cannot retire unfolded data.
	sealed := s.sealedSegments(sh)
	sh.mu.RLock()
	ids := make([]string, 0, len(sh.docs))
	for id := range sh.docs {
		ids = append(ids, id)
	}
	sh.mu.RUnlock()
	sort.Strings(ids)
	for _, id := range ids {
		st := sh.lookup(id)
		if st == nil {
			continue
		}
		if err := s.snapshotDoc(sh, id, st, false); err != nil {
			return fmt.Errorf("vstore: snapshot %s: %w", id, err)
		}
	}
	if err := s.retireSegments(sh, sealed); err != nil {
		return fmt.Errorf("vstore: retire shard %d segments: %w", sh.idx, err)
	}
	sh.lastCompact.Store(time.Now().Unix())
	return nil
}

// snapshotDoc persists one document's state under
// shard-NNN/docs/<escaped id>/: the base version, any delta files the
// previous snapshot lacked, the per-file checksum manifest, and —
// last — the version counter, each fsynced and renamed into place.
// With full set, every file is rewritten from the resident chain even
// when the counter says it is current: that is the scrubber's repair
// path for a snapshot whose on-disk bytes rotted.
//
// The cut is taken under the document's read lock: a stored part's XML
// never changes once appended, so rendering the parts it needs from
// their frames, compressing them (each delta's dictionary is the cut's
// own chain) and summing the chain run with no lock held, and
// Puts and reads never wait on either. The write lock is taken only to
// write the files, so the counter and snapVersions move together. The
// cut is at or after the seal point (covering makes sealed records
// redundant; covering more is harmless, replay skips them). The caller
// holds sh.compactMu, as every writer of snapVersions does, so the
// snapshot point read with the cut is still current when the files go
// down.
func (s *Store) snapshotDoc(sh *shard, id string, st *docState, full bool) error {
	st.mu.RLock()
	versions, prev := st.versions, st.snapVersions
	base, deltas := st.base, st.deltas[:max(versions-1, 0)]
	st.mu.RUnlock()
	if versions == 0 || (!full && versions == prev) {
		return nil // nothing new to fold
	}
	// whole rewrites every content file; otherwise only the deltas the
	// previous snapshot lacks are added. Each part is compressed against
	// the chain before it, which the resident chain holds.
	whole := full || prev == 0
	type file struct {
		name   string
		stored []byte
		raw    int
	}
	var files []file
	var tail chainTail
	from := prev
	if whole {
		from = 1
		xml, err := base.xml(baseXML)
		if err != nil {
			return fmt.Errorf("vstore: render %s version 1: %w", id, err)
		}
		files = append(files, file{"v1.xml", compressPart(xml, tail.b), len(xml)})
		tail.push(xml)
	} else if err := tail.pushChain(base, deltas[:from-1]); err != nil {
		return fmt.Errorf("vstore: render %s: %w", id, err)
	}
	for v := from; v < versions; v++ {
		d, err := deltas[v-1].xml(deltaXML)
		if err != nil {
			return fmt.Errorf("vstore: render %s delta %d: %w", id, v, err)
		}
		files = append(files, file{deltaFile(v), compressPart(d, tail.b), len(d)})
		tail.push(d)
	}
	sums := snapshotSums(base, deltas)
	if err := s.markFormat(); err != nil {
		return err
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	sub := filepath.Join(sh.dir, docsDirName, escapeID(id))
	if err := s.fs.MkdirAll(sub, 0o755); err != nil {
		return err
	}
	// The checksum manifest goes down first. Its entries describe
	// decoded parts, which never change, so it is valid for every file
	// already there, raw or compressed, and for each new one the moment
	// it is renamed into place: a crash anywhere in the pass leaves the
	// files the counter points at verifiable. The counter goes last.
	if err := writeAtomic(s.fs, filepath.Join(sub, sumsName), writeBytes(sums)); err != nil {
		return err
	}
	var counts snapBytes
	if !whole {
		counts = st.snap
	}
	for _, f := range files {
		if err := writeAtomic(s.fs, filepath.Join(sub, f.name), writeBytes(f.stored)); err != nil {
			return err
		}
		counts.add(encDict, len(f.stored), f.raw)
	}
	counter := func(w io.Writer) (int64, error) {
		n, err := io.WriteString(w, strconv.Itoa(versions))
		return int64(n), err
	}
	if err := writeAtomic(s.fs, filepath.Join(sub, "versions"), counter); err != nil {
		return err
	}
	st.snapVersions = versions
	sh.setSnapshotBytes(st, counts)
	return nil
}

// retireSegments deletes sealed segment files whose content the
// snapshots now cover. Runs strictly after every snapshotDoc of the
// pass (the segorder analyzer checks this ordering).
func (s *Store) retireSegments(sh *shard, seqs []int) error {
	for _, seq := range seqs {
		path := filepath.Join(sh.dir, segName(seq))
		if err := s.fs.Remove(path); err != nil {
			if _, statErr := s.fs.Stat(path); statErr != nil {
				continue // already gone
			}
			return err
		}
	}
	return nil
}

// writeBytes adapts a byte slice to writeAtomic's writer callback.
func writeBytes(b []byte) func(io.Writer) (int64, error) {
	return func(w io.Writer) (int64, error) {
		n, err := w.Write(b)
		return int64(n), err
	}
}
