package vstore

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"xydiff/internal/faultfs"
	"xydiff/internal/scrub"
)

// Compaction folds a shard's sealed segments into per-document
// snapshots and deletes the segments, bounding both recovery replay
// and disk growth. The crash-safety discipline, per shard:
//
//  1. seal the active segment, so every on-disk segment is frozen;
//  2. snapshot every document whose snapshot is behind, each file
//     written to a temp name, fsynced, and renamed into place, with
//     the version counter renamed last;
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
	s.mu.Lock()
	closed := s.closed
	if !closed {
		select {
		case s.compactCh <- struct{}{}:
		default:
		}
	}
	s.mu.Unlock()
}

// compactLoop is the background compactor: whenever a segment seals it
// scans the shards and compacts any that accumulated CompactSegments
// or more sealed segments.
func (s *Store) compactLoop() {
	defer close(s.compactDone)
	for range s.compactCh {
		for _, sh := range s.shards {
			if len(s.sealedSegments(sh)) < s.cfg.CompactSegments {
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
// path for a snapshot whose on-disk bytes rotted. The document's lock
// blocks Puts for the duration, so the snapshot is a consistent cut at
// or after the seal point (covering makes sealed records redundant;
// covering more is harmless, replay skips them).
func (s *Store) snapshotDoc(sh *shard, id string, st *docState, full bool) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.versions == 0 || (!full && st.versions == st.snapVersions) {
		return nil // nothing new to fold
	}
	sub := filepath.Join(sh.dir, docsDirName, escapeID(id))
	if err := s.fs.MkdirAll(sub, 0o755); err != nil {
		return err
	}
	if full || st.snapVersions == 0 {
		if err := writeAtomic(s.fs, filepath.Join(sub, "v1.xml"), writeBytes(st.base)); err != nil {
			return err
		}
	}
	from := st.snapVersions
	if full || from < 1 {
		from = 1
	}
	for v := from; v < st.versions; v++ {
		if err := writeAtomic(s.fs, filepath.Join(sub, deltaFile(v)), writeBytes(st.deltas[v-1])); err != nil {
			return err
		}
	}
	// The checksum manifest goes down after the content files and
	// before the counter: a counter that points at files always points
	// at verifiable ones. Content rewrites reproduce the originally
	// acknowledged bytes, so existing entries stay valid across repair.
	if err := writeAtomic(s.fs, filepath.Join(sub, sumsName), writeBytes(snapshotSums(st))); err != nil {
		return err
	}
	counter := func(w io.Writer) (int64, error) {
		n, err := io.WriteString(w, strconv.Itoa(st.versions))
		return int64(n), err
	}
	if err := writeAtomic(s.fs, filepath.Join(sub, "versions"), counter); err != nil {
		return err
	}
	st.snapVersions = st.versions
	return nil
}

// sumsName is the snapshot checksum manifest: one "<file> <crc32c>"
// line per snapshot content file. Recovery and the scrubber verify
// against it; its absence is tolerated (snapshots written before the
// manifest existed, migrated layouts).
const sumsName = "sums"

// snapshotSums renders the manifest for the resident chain; the caller
// holds st.mu.
func snapshotSums(st *docState) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "v1.xml %08x\n", scrub.Checksum(st.base))
	for v := 1; v < st.versions; v++ {
		fmt.Fprintf(&b, "%s %08x\n", deltaFile(v), scrub.Checksum(st.deltas[v-1]))
	}
	return b.Bytes()
}

// parseSums decodes a checksum manifest into file → CRC32-C.
func parseSums(raw []byte) (map[string]uint32, error) {
	out := make(map[string]uint32)
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("bad sums line %q", line)
		}
		v, err := strconv.ParseUint(sum, 16, 32)
		if err != nil {
			return nil, fmt.Errorf("bad sums line %q: %w", line, err)
		}
		out[name] = uint32(v)
	}
	return out, nil
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
