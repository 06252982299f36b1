package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/faultfs"
	"xydiff/internal/scrub"
	"xydiff/internal/xid"
)

// RecoveryStats reports what Open (or Load) reconstructed from disk.
type RecoveryStats struct {
	// Documents is how many documents were recovered.
	Documents int
	// SnapshotVersions is how many versions came from snapshots.
	SnapshotVersions int
	// JournalRecords is how many journal records were replayed into
	// versions the snapshot did not cover.
	JournalRecords int
	// JournalSkipped is how many journal records were already covered
	// by a snapshot (a crash between snapshot rename and journal
	// retirement leaves such records behind; they are harmless).
	JournalSkipped int
	// TornTails is how many journals ended in a partial record (a
	// crash mid-append) that recovery truncated away. A torn record's
	// version was never acknowledged, so nothing is lost.
	TornTails int
	// JournalBytes is the total size of the replayed journal files.
	JournalBytes int64
	// Quarantined counts corrupt files recovery set aside (renamed,
	// never deleted) instead of refusing to open; only degraded-
	// tolerant engines populate it.
	Quarantined int
	// DegradedDocs counts documents left serving degraded — their
	// latest intact version — because part of their history was
	// quarantined.
	DegradedDocs int
}

// RecoveryStats returns what the store reconstructed when it opened
// (all zero for a store built by New).
func (s *Store) RecoveryStats() RecoveryStats { return s.recovery }

// Open loads (or creates) a directory-backed store: the last snapshot
// is read, journal segments are replayed on top of it, torn journal
// tails are truncated, and the store keeps appending new versions to
// the journals as Puts arrive. Corrupt snapshots or mid-log journal
// damage refuse to open with an error matching ErrCorrupt that names
// the file and offset.
func Open(dir string, opts diff.Options, dur Durability) (*Store, error) {
	fsys := dur.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if dur.Interval <= 0 {
		dur.Interval = 100 * time.Millisecond
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := New(opts)
	s.dir = dir
	s.fs = fsys
	s.policy = dur.Sync
	s.interval = dur.Interval
	s.journals = make(map[string]*journalWriter)
	if err := recoverInto(s, fsys, dir); err != nil {
		return nil, err
	}
	if s.policy == SyncInterval {
		s.stopSync = make(chan struct{})
		s.syncDone = make(chan struct{})
		go s.syncLoop()
	}
	return s, nil
}

// recoverInto rebuilds s.docs from dir: every snapshot first, then
// every journal replayed on top. The two passes matter — ReadDir is
// lexicographic, and a document whose id sorts after "journal-" lists
// its journal before its snapshot directory; interleaving would replay
// a post-checkpoint (delta-only) journal against a base that is not
// loaded yet. Shared by Open (which keeps writing to dir) and Load
// (which only reads).
func recoverInto(s *Store, fsys faultfs.FS, dir string) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		// Quarantined snapshot directories (scrubber leavings) are
		// evidence, not documents.
		if !e.IsDir() || strings.Contains(e.Name(), scrub.QuarantineSuffix) {
			continue
		}
		id := unescapeID(e.Name())
		h, versions, err := loadSnapshot(fsys, filepath.Join(dir, e.Name()), id)
		if err != nil {
			return err
		}
		if h != nil {
			s.docs[id] = h
			s.recovery.SnapshotVersions += versions
		}
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), journalPrefix) || !strings.HasSuffix(e.Name(), journalSuffix) {
			continue
		}
		id := unescapeID(strings.TrimSuffix(strings.TrimPrefix(e.Name(), journalPrefix), journalSuffix))
		if err := s.replayJournal(fsys, filepath.Join(dir, e.Name()), id); err != nil {
			return err
		}
	}
	s.recovery.Documents = len(s.docs)
	return nil
}

// loadSnapshot reads one document's snapshot directory. A directory
// without a versions counter is not corrupt — it is a snapshot whose
// final rename never happened (crash mid-checkpoint); the journal
// still carries the document, so the half-snapshot is ignored.
func loadSnapshot(fsys faultfs.FS, sub, id string) (*history, int, error) {
	counterPath := filepath.Join(sub, "versions")
	raw, err := fsys.ReadFile(counterPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, corruptf(counterPath, -1, err, "unreadable version counter")
	}
	versions, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil || versions < 1 {
		return nil, 0, corruptf(counterPath, -1, nil, "bad version counter %q", raw)
	}
	v1Path := filepath.Join(sub, "v1.xml")
	v1Raw, err := fsys.ReadFile(v1Path)
	if err != nil {
		return nil, 0, corruptf(v1Path, -1, err, "unreadable base version")
	}
	doc, err := dom.ParseBytes(v1Raw, snapshotLoadOptions())
	if err != nil {
		return nil, 0, corruptf(v1Path, -1, err, "unparseable base version")
	}
	xid.Assign(doc)
	h := &history{latest: doc, versions: 1}
	for v := 1; v < versions; v++ {
		dPath := filepath.Join(sub, deltaFile(v))
		dRaw, err := fsys.ReadFile(dPath)
		if err != nil {
			return nil, 0, corruptf(dPath, -1, err, "unreadable delta %d", v)
		}
		d, err := delta.ParseBytes(dRaw)
		if err != nil {
			return nil, 0, corruptf(dPath, -1, err, "unparseable delta %d", v)
		}
		if err := delta.Apply(h.latest, d); err != nil {
			return nil, 0, corruptf(dPath, -1, err, "delta %d does not apply to version %d", v, v)
		}
		h.deltas = append(h.deltas, d)
		h.versions++
	}
	return h, versions, nil
}

// replayJournal reads one journal file and applies its records on top
// of whatever the snapshot recovered. A partial record at the tail is
// truncated away (TornTails); damage anywhere else refuses recovery
// with ErrCorrupt naming the file and offset.
func (s *Store) replayJournal(fsys faultfs.FS, path, id string) error {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return corruptf(path, -1, err, "unreadable journal")
	}
	s.recovery.JournalBytes += int64(len(data))
	h := s.docs[id]
	off := int64(0)
	for int(off) < len(data) {
		rem := int64(len(data)) - off
		if rem < journalHeaderLen {
			if err := s.truncateTorn(fsys, path, off); err != nil {
				return err
			}
			break
		}
		length := int64(binary.BigEndian.Uint32(data[off : off+4]))
		if length == 0 || length > maxRecordLen {
			return corruptf(path, off, nil, "invalid record length %d", length)
		}
		if rem-journalHeaderLen < length {
			if err := s.truncateTorn(fsys, path, off); err != nil {
				return err
			}
			break
		}
		wantCRC := binary.BigEndian.Uint32(data[off+4 : off+8])
		payload := data[off+journalHeaderLen : off+journalHeaderLen+length]
		if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
			return corruptf(path, off, nil, "checksum mismatch (stored %08x, computed %08x)", wantCRC, got)
		}
		kind, version, body, err := decodePayload(payload)
		if err != nil {
			return corruptf(path, off, err, "undecodable record")
		}
		if err := s.applyRecord(&h, id, path, off, kind, version, body); err != nil {
			return err
		}
		off += journalHeaderLen + length
	}
	if h != nil {
		s.docs[id] = h
	}
	return nil
}

// truncateTorn cuts a journal back to the end of its last complete
// record. The torn record's Put never returned success, so dropping it
// loses nothing acknowledged.
func (s *Store) truncateTorn(fsys faultfs.FS, path string, off int64) error {
	s.recovery.TornTails++
	if err := fsys.Truncate(path, off); err != nil {
		return fmt.Errorf("store: truncate torn journal tail %s at %d: %w", path, off, err)
	}
	return nil
}

// applyRecord folds one verified journal record into the document's
// history, skipping records a snapshot already covers.
func (s *Store) applyRecord(h **history, id, path string, off int64, kind byte, version int, body []byte) error {
	switch kind {
	case recordBase:
		if version != 1 {
			return corruptf(path, off, nil, "base record claims version %d", version)
		}
		if *h != nil && (*h).versions >= 1 {
			s.recovery.JournalSkipped++
			return nil
		}
		doc, err := dom.ParseBytes(body, snapshotLoadOptions())
		if err != nil {
			return corruptf(path, off, err, "unparseable base document")
		}
		xid.Assign(doc)
		*h = &history{latest: doc, versions: 1}
		s.recovery.JournalRecords++
		return nil
	case recordDelta:
		if *h == nil {
			return corruptf(path, off, nil, "delta record for version %d but no base version", version)
		}
		if version <= (*h).versions {
			s.recovery.JournalSkipped++
			return nil
		}
		if version != (*h).versions+1 {
			return corruptf(path, off, nil, "record jumps to version %d after %d", version, (*h).versions)
		}
		d, err := delta.ParseBytes(body)
		if err != nil {
			return corruptf(path, off, err, "unparseable delta record for version %d", version)
		}
		if err := delta.Apply((*h).latest, d); err != nil {
			return corruptf(path, off, err, "delta record for version %d does not apply", version)
		}
		(*h).deltas = append((*h).deltas, d)
		(*h).versions++
		s.recovery.JournalRecords++
		return nil
	default:
		return corruptf(path, off, nil, "unknown record kind %d", kind)
	}
}
