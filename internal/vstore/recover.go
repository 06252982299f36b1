package vstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"xydiff/internal/diff"
	"xydiff/internal/faultfs"
	"xydiff/internal/store"
)

// ErrNeedsMigration reports that a directory holds the old
// per-document store layout; `xystore -dir DIR migrate` converts it to
// the sharded segment layout in place (with a backup).
var ErrNeedsMigration = errors.New("vstore: directory uses the per-document store layout; run `xystore migrate`")

const (
	manifestName = "MANIFEST.json"
	// manifestFormat marks a directory whose delta files may be coded
	// against the chain before them; manifestFormatGzip one whose
	// content files are raw XML or gzip members, and manifestFormatRaw
	// one whose files are all raw XML. Open accepts all three and
	// rewrites an older marker to manifestFormat before compaction
	// writes its first file.
	manifestFormat     = "vstore-v3"
	manifestFormatGzip = "vstore-v2"
	manifestFormatRaw  = "vstore-v1"
	shardDirFmt        = "shard-%03d"
	docsDirName        = "docs"
)

// manifest is the engine marker at the directory root. The shard count
// is fixed here at creation; reopening uses the recorded count
// regardless of Config.Shards, because record placement depends on it.
type manifest struct {
	Format string `json:"format"`
	Shards int    `json:"shards"`
}

func shardDirName(idx int) string { return fmt.Sprintf(shardDirFmt, idx) }

// Open loads (or creates) a sharded store under dir: per-document
// snapshots are read and inflated into raw parts, checked against
// their checksum manifests, segment journals are replayed on
// top in sequence order, torn segment tails are truncated, and the
// per-shard group-commit writers start accepting Puts. Mid-log damage
// refuses to open with an error matching *corruptError naming the
// file and offset. A directory in the old per-document layout is
// refused with ErrNeedsMigration.
//
// An empty dir opens a store whose chains live in memory only: no
// manifest, no recovery, no segments and no background goroutines, so
// it holds nothing that Close must release. Every other path is the
// engine's usual one; only the durable append, Checkpoint, ScrubPass
// and Close skip the disk.
func Open(dir string, opts diff.Options, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	fsys := cfg.FS
	s := &Store{
		opts:  opts,
		cfg:   cfg,
		dir:   dir,
		fs:    fsys,
		cache: newVersionCache(cfg.CacheSize),
	}
	if dir == "" {
		for i := 0; i < cfg.Shards; i++ {
			s.shards = append(s.shards, &shard{
				idx:  i,
				docs: make(map[string]*docState),
				hist: &s.stats.history,
				seg:  newSegmentWriter(fsys, "", 1, cfg.segmentBytes), // never opened
			})
		}
		return s, nil
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vstore: open %s: %w", dir, err)
	}
	m, err := loadOrCreateManifest(fsys, dir, cfg.Shards)
	if err != nil {
		return nil, err
	}
	s.cfg.Shards = m.Shards
	s.format = m.Format
	for i := 0; i < m.Shards; i++ {
		sh := &shard{
			idx:        i,
			dir:        filepath.Join(dir, shardDirName(i)),
			docs:       make(map[string]*docState),
			hist:       &s.stats.history,
			commitCh:   make(chan *commitReq, commitQueueDepth),
			writerDone: make(chan struct{}),
		}
		if err := fsys.MkdirAll(sh.dir, 0o755); err != nil {
			return nil, fmt.Errorf("vstore: create %s: %w", sh.dir, err)
		}
		if err := s.recoverShard(sh); err != nil {
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	s.recovery.Documents = 0
	for _, sh := range s.shards {
		s.recovery.Documents += len(sh.docs)
	}
	for _, sh := range s.shards {
		sh.seg.onSeal = s.signalCompact
		go s.committer(sh)
	}
	s.recovery.DegradedDocs = int(s.degradedDocs())
	// The background loops run until Close cancels their context, which
	// also ends a scrub cycle in flight.
	ctx, cancel := context.WithCancel(context.Background())
	s.stopLoops = cancel
	if cfg.Sync == store.SyncInterval {
		s.loops.Add(1)
		go s.syncLoop(ctx)
	}
	if cfg.compactSegments > 0 {
		s.compactCh = make(chan struct{}, 1)
		s.loops.Add(1)
		go s.compactLoop(ctx)
	}
	if cfg.Scrub.Interval > 0 {
		s.loops.Add(1)
		go s.scrubLoop(ctx)
	}
	return s, nil
}

// loadOrCreateManifest reads the engine marker, creating it for a
// fresh (or empty) directory. A non-empty directory without a manifest
// that looks like the per-document layout gets ErrNeedsMigration;
// anything else unrecognized is refused as corrupt rather than
// silently adopted.
func loadOrCreateManifest(fsys faultfs.FS, dir string, shards int) (*manifest, error) {
	path := filepath.Join(dir, manifestName)
	raw, err := fsys.ReadFile(path)
	switch {
	case err == nil:
		var m manifest
		if jerr := json.Unmarshal(raw, &m); jerr != nil {
			return nil, corruptf(path, -1, jerr, "unparseable manifest")
		}
		known := m.Format == manifestFormat || m.Format == manifestFormatGzip || m.Format == manifestFormatRaw
		if !known || m.Shards < 1 {
			return nil, corruptf(path, -1, nil, "unsupported manifest (format %q, %d shards)", m.Format, m.Shards)
		}
		return &m, nil
	case os.IsNotExist(err):
		entries, rerr := fsys.ReadDir(dir)
		if rerr != nil {
			return nil, fmt.Errorf("vstore: read %s: %w", dir, rerr)
		}
		if oldLayout(fsys, dir, entries) {
			return nil, fmt.Errorf("%w (%s)", ErrNeedsMigration, dir)
		}
		for _, e := range entries {
			// Tolerate leftover temp files (they start with ".") and
			// shard directories from a crash before the manifest rename.
			if n := e.Name(); !strings.HasPrefix(n, ".") && !strings.HasPrefix(n, "shard-") {
				return nil, corruptf(path, -1, nil, "directory %s is non-empty (%s) but has no manifest", dir, n)
			}
		}
		m := &manifest{Format: manifestFormat, Shards: shards}
		if werr := writeManifest(fsys, dir, m); werr != nil {
			return nil, werr
		}
		return m, nil
	default:
		return nil, fmt.Errorf("vstore: read manifest: %w", err)
	}
}

// writeManifest puts the engine marker in place atomically.
func writeManifest(fsys faultfs.FS, dir string, m *manifest) error {
	blob, _ := json.MarshalIndent(m, "", "  ") // a manifest always marshals
	blob = append(blob, '\n')
	if err := writeAtomic(fsys, filepath.Join(dir, manifestName), writeBytes(blob)); err != nil {
		return fmt.Errorf("vstore: write manifest: %w", err)
	}
	return nil
}

// markFormat rewrites a vstore-v1 or vstore-v2 manifest to vstore-v3;
// compaction calls it before writing a content file. A build that
// cannot decode the files then refuses the directory as an unsupported
// format, instead of taking them for bit rot (and, opened degraded,
// quarantining them).
func (s *Store) markFormat() error {
	s.formatMu.Lock()
	defer s.formatMu.Unlock()
	if s.format == manifestFormat {
		return nil
	}
	if err := writeManifest(s.fs, s.dir, &manifest{Format: manifestFormat, Shards: len(s.shards)}); err != nil {
		return err
	}
	s.format = manifestFormat
	return nil
}

// recoverShard rebuilds one shard's documents: snapshots first (raw
// parts, no parsing — trees materialize lazily through the LRU), then
// the segment journals replayed in sequence order on top.
func (s *Store) recoverShard(sh *shard) error {
	docsDir := filepath.Join(sh.dir, docsDirName)
	if entries, err := s.fs.ReadDir(docsDir); err == nil {
		for _, e := range entries {
			if !e.IsDir() || strings.Contains(e.Name(), quarantineSuffix) {
				continue
			}
			id := unescapeID(e.Name())
			sub := filepath.Join(docsDir, e.Name())
			st, err := loadSnapshot(s.fs, sub)
			if err != nil {
				if !s.cfg.OpenDegraded {
					return err
				}
				// Set the damaged snapshot aside and leave a degraded
				// placeholder: the segments may still rebuild the
				// document; if they cannot, reads get a DegradedError
				// rather than a silent 404.
				if _, qerr := quarantine(s.fs, sub); qerr != nil {
					return fmt.Errorf("vstore: %w (and quarantine failed: %w)", err, qerr)
				}
				s.recovery.Quarantined++
				sh.stats.quarantined.Add(1)
				st = &docState{hist: sh.hist}
				s.markDegradedLocked(sh, st, fmt.Sprintf("snapshot quarantined at open: %v", err))
				sh.docs[id] = st
				continue
			}
			if st != nil {
				st.countHistory(sh.hist)
				sh.docs[id] = st
				sh.stats.addSnapshot(st.snap, snapBytes{})
				s.recovery.SnapshotVersions += st.versions
			}
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("vstore: read %s: %w", docsDir, err)
	}
	entries, err := s.fs.ReadDir(sh.dir)
	if err != nil {
		return fmt.Errorf("vstore: read %s: %w", sh.dir, err)
	}
	var seqs []int
	for _, e := range entries {
		if seq, ok := parseSegName(e.Name()); ok && !e.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		path := filepath.Join(sh.dir, segName(seq))
		if err := s.replaySegment(sh, path); err != nil {
			var ce *corruptError
			if !s.cfg.OpenDegraded || !errors.As(err, &ce) {
				return err
			}
			// Mid-segment damage in degraded mode: quarantine the file
			// and keep going. Records already replayed from it stand;
			// whatever followed the damage is unprovable, so every
			// document known so far is conservatively degraded (later
			// segments re-anchor new documents with base records, and
			// version jumps mark survivors precisely).
			if _, qerr := quarantine(s.fs, path); qerr != nil {
				return fmt.Errorf("vstore: %w (and quarantine failed: %w)", err, qerr)
			}
			s.recovery.Quarantined++
			sh.stats.quarantined.Add(1)
			reason := fmt.Sprintf("segment %s quarantined at open: %v", segName(seq), ce.reason)
			for _, st := range sh.docs {
				st.mu.Lock()
				s.markDegradedLocked(sh, st, reason)
				st.mu.Unlock()
			}
		}
	}
	next := 1
	if n := len(seqs); n > 0 {
		next = seqs[n-1] + 1
	}
	sh.seg = newSegmentWriter(s.fs, sh.dir, next, s.cfg.segmentBytes)
	return nil
}

// loadSnapshot reads one document's snapshot directory into a chain of
// raw parts through walkSnapshot: compressed content files are inflated
// in chain order and every part is checked against the checksum
// manifest when there is one, so bit rot in a snapshot is caught at
// open, before a reader can be handed a version built from it. Nothing
// is parsed. A directory without a versions counter is not corrupt
// (snapshotVersions); the segments still carry the document, so the
// half-snapshot is ignored.
func loadSnapshot(fsys faultfs.FS, sub string) (*docState, error) {
	read := func(name string) ([]byte, error) { return fsys.ReadFile(filepath.Join(sub, name)) }
	versions, err := snapshotVersions(sub, read)
	if versions == 0 {
		return nil, err
	}
	st := &docState{versions: versions, snapVersions: versions}
	err = walkSnapshot(sub, versions, read, func(i int, data, part []byte) error {
		st.snap.add(encodingOf(data), len(data), len(part))
		if i == 0 {
			st.base = xmlPart(part)
		} else {
			st.deltas = append(st.deltas, xmlPart(part))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// replaySegment folds one segment's records into the shard's document
// states. Bodies stay serialized; only framing, checksums and version
// sequencing are validated here, so reopening a million-document store
// parses nothing. The framing is walked by walkLog, as the scrubber
// and Migrate walk it. A partial record at the tail is truncated away
// (TornTails); damage anywhere else refuses recovery with an error
// matching *corruptError naming the file and offset.
func (s *Store) replaySegment(sh *shard, path string) error {
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return corruptf(path, -1, err, "unreadable segment")
	}
	s.recovery.JournalBytes += int64(len(data))
	var refused error
	damage := walkLog(data, func(off int64, payload []byte) error {
		kind, id, version, body, err := decodePayload(payload)
		if err != nil {
			refused = corruptf(path, off, err, "undecodable record")
		} else {
			refused = s.applyRecord(sh, path, off, kind, id, version, body)
		}
		return refused
	})
	switch {
	case refused != nil:
		return refused
	case damage == nil:
		return nil
	case damage.torn:
		return s.truncateTorn(path, damage.off)
	}
	return corruptf(path, damage.off, nil, "%s", damage.reason)
}

// truncateTorn cuts a segment back to the end of its last complete
// record. The torn batch's Puts never returned success, so dropping it
// loses nothing acknowledged.
func (s *Store) truncateTorn(path string, off int64) error {
	s.recovery.TornTails++
	if err := s.fs.Truncate(path, off); err != nil {
		return fmt.Errorf("vstore: truncate torn segment tail %s at %d: %w", path, off, err)
	}
	return nil
}

// applyRecord folds one verified segment record into its document's
// state, skipping records a snapshot already covers. The record body
// is copied, not retained: the segment buffer is large and transient.
func (s *Store) applyRecord(sh *shard, path string, off int64, kind byte, id string, version int, body []byte) error {
	st := sh.docs[id]
	switch kind {
	case recordBase:
		if version != 1 {
			return corruptf(path, off, nil, "base record for %q claims version %d", id, version)
		}
		if st != nil && st.versions >= 1 {
			s.recovery.JournalSkipped++
			return nil
		}
		if st == nil {
			st = &docState{hist: sh.hist}
			sh.docs[id] = st
		}
		st.base = st.keep(xmlPart(append([]byte(nil), body...)))
		st.versions = 1
		s.recovery.JournalRecords++
		return nil
	case recordDelta:
		if st == nil || st.versions == 0 {
			if s.cfg.OpenDegraded {
				// The base this delta builds on was lost with a
				// quarantined file. The delta alone reconstructs
				// nothing; keep (or create) a degraded placeholder so
				// the document answers a DegradedError, not 404.
				if st == nil {
					st = &docState{hist: sh.hist}
					sh.docs[id] = st
				}
				st.mu.Lock()
				s.markDegradedLocked(sh, st, fmt.Sprintf("delta record v%d in %s has no surviving base", version, filepath.Base(path)))
				st.mu.Unlock()
				s.recovery.JournalSkipped++
				return nil
			}
			return corruptf(path, off, nil, "delta record for %q version %d but no base version", id, version)
		}
		if version <= st.versions {
			s.recovery.JournalSkipped++
			return nil
		}
		if version != st.versions+1 {
			if s.cfg.OpenDegraded {
				// Versions between st.versions and this record were in
				// a quarantined file; the chain ends at the last intact
				// version and later records for the document are
				// unappliable.
				st.mu.Lock()
				s.markDegradedLocked(sh, st, fmt.Sprintf("versions %d..%d lost to a quarantined file", st.versions+1, version-1))
				st.mu.Unlock()
				s.recovery.JournalSkipped++
				return nil
			}
			return corruptf(path, off, nil, "record for %q jumps to version %d after %d", id, version, st.versions)
		}
		st.deltas = append(st.deltas, st.keep(xmlPart(append([]byte(nil), body...))))
		st.versions++
		s.recovery.JournalRecords++
		return nil
	default:
		return corruptf(path, off, nil, "unknown record kind %d", kind)
	}
}

// corruptError reports that on-disk store data (a snapshot file or a
// journal segment) failed validation, and exactly where, so an operator
// can inspect or excise the damage instead of guessing.
type corruptError struct {
	// file is the path of the damaged snapshot or journal file.
	file string
	// offset is the byte offset of the damage within file, or -1 when
	// the failure concerns the file as a whole (unparseable snapshot,
	// bad version counter).
	offset int64
	// reason says what check failed.
	reason string
	// err is the underlying error, if any.
	err error
}

// Error implements error.
func (e *corruptError) Error() string {
	msg := fmt.Sprintf("store: corrupt data in %s", e.file)
	if e.offset >= 0 {
		msg += fmt.Sprintf(" at offset %d", e.offset)
	}
	if e.reason != "" {
		msg += ": " + e.reason
	}
	if e.err != nil {
		msg += ": " + e.err.Error()
	}
	return msg
}

// Unwrap exposes the underlying error to errors.Is/As chains.
func (e *corruptError) Unwrap() error { return e.err }

// corruptf builds a corruptError for file at offset (use -1 for
// whole-file failures).
func corruptf(file string, offset int64, err error, format string, args ...any) *corruptError {
	return &corruptError{file: file, offset: offset, reason: fmt.Sprintf(format, args...), err: err}
}

// writeAtomic writes via a temporary file in path's directory, syncs,
// and renames into place, so path is never observed half-written.
func writeAtomic(fsys faultfs.FS, path string, write func(io.Writer) (int64, error)) error {
	f, err := fsys.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer fsys.Remove(tmp) // no-op once renamed
	if _, err := write(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the sync error is the one to report
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, path)
}

func deltaFile(n int) string { return fmt.Sprintf("delta-%04d.xml", n) }
