// Package store implements the change-centric version repository the
// diff serves in the Xyleme architecture (the paper's Figure 1 and
// Section 2): each document is kept as its latest version plus the
// sequence of completed deltas connecting consecutive versions. Because
// deltas are completed (and therefore invertible), any past version can
// be reconstructed from the latest one, and "queries about the past"
// are queries over the stored delta documents.
//
// A store can be purely in-memory (New) or backed by a directory
// (Open). A backed store is crash-safe: every Put appends the version
// to a per-document write-ahead journal before it is acknowledged, and
// reopening the directory replays journals on top of the last snapshot
// (see journal.go and recover.go). Checkpoint writes a fresh snapshot
// and retires the replayed journal segments.
package store

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/faultfs"
	"xydiff/internal/xid"
)

// Observation is what an Observer is told about one successful
// non-initial Put.
type Observation struct {
	ID      string
	Version int // the version the delta produced
	// Old and New are the store's previous and new latest documents,
	// with the XIDs the delta refers to.
	Old, New *dom.Node
	// Result is the diff result: the delta plus phase timings.
	Result *diff.Result
	// DeltaBytes is the length of the delta's XML encoding. The store
	// encodes each delta once, for its journal record; an observer that
	// wants the size reads it here instead of encoding the delta again.
	DeltaBytes int
}

// Observer receives every successful non-initial Put. It is invoked
// synchronously under the document's lock, so per-document call order
// matches version order; it must not call back into the store for the
// same document, must not mutate the document trees, and must not
// retain them — or anything pointing into them, such as a
// delta.Targets — past its return. (The delta's ops are immutable and
// may be kept.)
type Observer func(Observation)

// PutResult is what PutDetailed reports about an installed version.
type PutResult struct {
	Version int
	// Delta leads from the previous version to this one; nil for the
	// first version.
	Delta *delta.Delta
	// DeltaBytes is the length of Delta's XML encoding — of the bytes
	// the journal record carries and Delta(id, Version-1) serializes to
	// — or 0 for the first version.
	DeltaBytes int
}

// Store is a versioned XML repository. All methods are safe for
// concurrent use; writes to different documents diff in parallel,
// writes to the same document serialize on its history lock.
type Store struct {
	opts diff.Options
	obs  Observer

	mu   sync.RWMutex // guards the docs map only, never document contents
	docs map[string]*history

	// Durability attachment; zero for a purely in-memory store.
	dir      string
	fs       faultfs.FS
	policy   SyncPolicy
	interval time.Duration
	jmu      sync.Mutex // guards journals map and closed flag
	journals map[string]*journalWriter
	closed   bool
	stopSync chan struct{}
	syncDone chan struct{}
	stats    durabilityCounters
	recovery RecoveryStats
}

type history struct {
	mu       sync.RWMutex
	latest   *dom.Node      // current version, XIDs assigned
	deltas   []*delta.Delta // deltas[i] transforms version i+1 into version i+2
	versions int
}

// New returns an empty in-memory store whose diffs run with the given
// options. Nothing is persisted; use Open for a durable store.
func New(opts diff.Options) *Store {
	return &Store{opts: opts, docs: make(map[string]*history)}
}

// SetObserver installs the hook called after every versioning diff.
// It must be set before the store starts serving concurrent Puts.
func (s *Store) SetObserver(obs Observer) { s.obs = obs }

// get returns the history for id, or nil.
func (s *Store) get(id string) *history {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.docs[id]
}

// journaling reports whether Puts must reach the write-ahead journal
// before they are acknowledged.
func (s *Store) journaling() bool { return s.dir != "" }

// Put installs a new version of the document identified by id and
// returns its version number (1-based) and the delta from the previous
// version (nil for the first). The store keeps its own copy of doc.
func (s *Store) Put(id string, doc *dom.Node) (int, *delta.Delta, error) {
	return s.PutContext(context.Background(), id, doc)
}

// PutContext is Put honouring context cancellation: the diff against
// the previous version aborts with ctx.Err() once ctx is done, leaving
// the stored history untouched.
//
// On a journaling store the version is appended (and, under
// SyncAlways, fsynced) to the document's journal before PutContext
// returns: a nil error means the version survives a crash. A journal
// write failure leaves the in-memory history untouched and returns the
// error, so the version is neither acknowledged nor half-installed.
func (s *Store) PutContext(ctx context.Context, id string, doc *dom.Node) (int, *delta.Delta, error) {
	return s.PutMatcherContext(ctx, id, doc, "")
}

// PutMatcherContext is PutContext with a per-call matcher override: a
// non-empty matcher replaces the store's configured Options.Matcher
// for this version's diff only. The stored delta format is identical
// for every matcher, so histories may freely mix them.
func (s *Store) PutMatcherContext(ctx context.Context, id string, doc *dom.Node, matcher diff.Matcher) (int, *delta.Delta, error) {
	r, err := s.PutDetailed(ctx, id, doc, matcher)
	return r.Version, r.Delta, err
}

// PutDetailed is PutMatcherContext reporting, besides the version and
// the delta, the size of the delta's encoding.
func (s *Store) PutDetailed(ctx context.Context, id string, doc *dom.Node, matcher diff.Matcher) (PutResult, error) {
	if doc == nil || doc.Type != dom.Document {
		return PutResult{}, fmt.Errorf("store: need a Document node")
	}
	opts := s.opts
	if matcher != "" {
		opts.Matcher = matcher
	}
	s.mu.Lock()
	h := s.docs[id]
	if h == nil {
		h = &history{}
		s.docs[id] = h
	}
	s.mu.Unlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.versions == 0 {
		first := doc.Clone()
		xid.Assign(first)
		if s.journaling() {
			if _, err := s.journalAppend(id, 1, recordBase, first); err != nil {
				return PutResult{}, err
			}
		}
		h.latest = first
		h.versions = 1
		return PutResult{Version: 1}, nil
	}
	next := doc.Clone()
	r, err := diff.DiffDetailedContext(ctx, h.latest, next, opts)
	if err != nil {
		return PutResult{}, fmt.Errorf("store: diff %s: %w", id, err)
	}
	// The delta is encoded once: into the journal record, or, with no
	// journal, into a counting sink.
	var deltaBytes int
	if s.journaling() {
		if deltaBytes, err = s.journalAppend(id, h.versions+1, recordDelta, r.Delta); err != nil {
			return PutResult{}, err
		}
	} else {
		deltaBytes = r.Delta.Size()
	}
	old := h.latest
	h.deltas = append(h.deltas, r.Delta)
	h.latest = next
	h.versions++
	if s.obs != nil {
		s.obs(Observation{ID: id, Version: h.versions, Old: old, New: next, Result: r, DeltaBytes: deltaBytes})
	}
	return PutResult{Version: h.versions, Delta: r.Delta, DeltaBytes: deltaBytes}, nil
}

// reading returns id's history read-locked, or an error when the
// document is unknown (a history published by a first Put still in
// flight counts as unknown). The caller must RUnlock it.
func (s *Store) reading(id string) (*history, error) {
	h := s.get(id)
	if h == nil {
		return nil, fmt.Errorf("store: %w %q", ErrUnknownDocument, id)
	}
	h.mu.RLock()
	if h.versions == 0 {
		h.mu.RUnlock()
		return nil, fmt.Errorf("store: %w %q", ErrUnknownDocument, id)
	}
	//xyvet:allow lockbalance -- deliberate handoff: the caller receives h read-locked and must RUnlock it
	return h, nil
}

// Latest returns a copy of the current version and its version number.
func (s *Store) Latest(id string) (*dom.Node, int, error) {
	h, err := s.reading(id)
	if err != nil {
		return nil, 0, err
	}
	defer h.mu.RUnlock()
	return h.latest.Clone(), h.versions, nil
}

// Versions returns how many versions of id are recorded (0 if none).
func (s *Store) Versions(id string) int {
	h := s.get(id)
	if h == nil {
		return 0
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.versions
}

// IDs lists the stored document identifiers, sorted. Documents whose
// first Put is still in flight are omitted.
func (s *Store) IDs() []string {
	s.mu.RLock()
	hs := make(map[string]*history, len(s.docs))
	for id, h := range s.docs {
		hs[id] = h
	}
	s.mu.RUnlock()
	out := make([]string, 0, len(hs))
	for id, h := range hs {
		h.mu.RLock()
		ok := h.versions > 0
		h.mu.RUnlock()
		if ok {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// applyInverse applies the inverse of d to doc.
func applyInverse(doc *dom.Node, d *delta.Delta) error {
	inv, err := d.Invert()
	if err != nil {
		return err
	}
	return delta.Apply(doc, inv)
}

// Version reconstructs version n (1-based) of the document by applying
// inverted deltas backward from the latest version — the paper's
// "reconstruct any version of the document given another version and
// the corresponding delta".
func (s *Store) Version(id string, n int) (*dom.Node, error) {
	h, err := s.reading(id)
	if err != nil {
		return nil, err
	}
	defer h.mu.RUnlock()
	if n < 1 || n > h.versions {
		return nil, fmt.Errorf("store: %s has versions 1..%d, not %d: %w", id, h.versions, n, ErrNoSuchVersion)
	}
	doc := h.latest.Clone()
	for v := h.versions; v > n; v-- {
		if err := applyInverse(doc, h.deltas[v-2]); err != nil {
			return nil, fmt.Errorf("store: reconstruct %s version %d: %w", id, n, err)
		}
	}
	return doc, nil
}

// Delta returns the stored delta that transforms version n into n+1.
func (s *Store) Delta(id string, n int) (*delta.Delta, error) {
	h, err := s.reading(id)
	if err != nil {
		return nil, err
	}
	defer h.mu.RUnlock()
	if n < 1 || n >= h.versions {
		return nil, fmt.Errorf("store: %s has deltas 1..%d, not %d: %w", id, h.versions-1, n, ErrNoSuchVersion)
	}
	return h.deltas[n-1], nil
}

// DeltasBetween returns the delta sequence transforming version from
// into version to. When from > to, the deltas are inverted and
// returned in reverse order, so applying them in order still works.
func (s *Store) DeltasBetween(id string, from, to int) ([]*delta.Delta, error) {
	h, err := s.reading(id)
	if err != nil {
		return nil, err
	}
	defer h.mu.RUnlock()
	if from < 1 || from > h.versions || to < 1 || to > h.versions {
		return nil, fmt.Errorf("store: version range %d..%d outside 1..%d: %w", from, to, h.versions, ErrNoSuchVersion)
	}
	var out []*delta.Delta
	switch {
	case from < to:
		for v := from; v < to; v++ {
			out = append(out, h.deltas[v-1])
		}
	case from > to:
		for v := from; v > to; v-- {
			inv, err := h.deltas[v-2].Invert()
			if err != nil {
				return nil, fmt.Errorf("store: invert %s delta %d: %w", id, v-1, err)
			}
			out = append(out, inv)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// File persistence. Layout, under dir/:
//
//	<escaped id>/latest.xml      current snapshotted version
//	<escaped id>/versions        snapshot version counter (decimal)
//	<escaped id>/v1.xml          base version (canonical XIDs)
//	<escaped id>/delta-0001.xml  ... delta-(versions-1).xml
//	journal-<escaped id>.log     write-ahead journal (see journal.go)
//
// XIDs of the latest version are rebuilt on load by replaying deltas
// from version 1, whose XIDs are canonical post-order.
//
// Every snapshot file is written to a temporary name in the same
// directory and renamed into place, and the version counter is renamed
// last: a save interrupted at any point leaves either the previous
// consistent state or the new one, never a half-written file the
// counter points at. Versions newer than the snapshot live in the
// journal and are replayed over it on Open.

// Save writes a snapshot of the whole store under dir. It does not
// touch journals; a backed store should normally use Checkpoint, which
// snapshots into its own directory and retires the journal segments
// the snapshot covers.
func (s *Store) Save(dir string) error {
	fsys := s.fsOrOS()
	s.mu.RLock()
	hs := make(map[string]*history, len(s.docs))
	for id, h := range s.docs {
		hs[id] = h
	}
	s.mu.RUnlock()
	for id, h := range hs {
		h.mu.RLock()
		err := saveHistory(fsys, dir, id, h)
		h.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint snapshots a backed store into its directory and retires
// each document's replayed journal segment: after it returns, the
// snapshot alone reconstructs every version, and the journals hold only
// versions installed after the checkpoint began. Crash-safe at every
// point — the snapshot is written with atomic renames before a journal
// segment is removed, and journal records the snapshot already covers
// are skipped on replay.
func (s *Store) Checkpoint() error {
	if !s.journaling() {
		return fmt.Errorf("store: Checkpoint needs a directory-backed store (use Open)")
	}
	s.mu.RLock()
	hs := make(map[string]*history, len(s.docs))
	for id, h := range s.docs {
		hs[id] = h
	}
	s.mu.RUnlock()
	ids := make([]string, 0, len(hs))
	for id := range hs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := s.checkpointDoc(id, hs[id]); err != nil {
			return err
		}
	}
	s.stats.addCheckpoint()
	return nil
}

// checkpointDoc snapshots one document and retires its journal. The
// history read lock blocks Puts for this document, so the journal
// cannot grow between the snapshot and the retirement.
func (s *Store) checkpointDoc(id string, h *history) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.versions == 0 {
		return nil
	}
	if err := saveHistory(s.fs, s.dir, id, h); err != nil {
		return fmt.Errorf("store: checkpoint %s: %w", id, err)
	}
	if err := s.journalRetire(id); err != nil {
		return fmt.Errorf("store: retire journal %s: %w", id, err)
	}
	return nil
}

// Close stops the background sync loop (SyncInterval stores), flushes
// and closes every open journal file. The store stays readable; writes
// after Close fail.
func (s *Store) Close() error {
	if !s.journaling() {
		return nil
	}
	s.jmu.Lock()
	if s.closed {
		s.jmu.Unlock()
		return nil
	}
	s.closed = true
	writers := make([]*journalWriter, 0, len(s.journals))
	for _, w := range s.journals {
		writers = append(writers, w)
	}
	s.journals = make(map[string]*journalWriter)
	s.jmu.Unlock()
	if s.stopSync != nil {
		close(s.stopSync)
		<-s.syncDone
	}
	var firstErr error
	for _, w := range writers {
		if err := w.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// fsOrOS returns the attached filesystem, or the real one.
func (s *Store) fsOrOS() faultfs.FS {
	if s.fs != nil {
		return s.fs
	}
	return faultfs.OS{}
}

// saveHistory writes one document's snapshot; the caller holds at
// least a read lock on h.
func saveHistory(fsys faultfs.FS, dir, id string, h *history) error {
	if h.versions == 0 {
		return nil // first Put still in flight
	}
	sub := filepath.Join(dir, escapeID(id))
	if err := fsys.MkdirAll(sub, 0o755); err != nil {
		return err
	}
	// Persist version 1 (canonical XIDs) plus all deltas; the latest
	// version is recomputable, but store it too so readers can grab it
	// without replay.
	v1, err := versionLocked(h, 1)
	if err != nil {
		return err
	}
	if err := writeAtomic(fsys, filepath.Join(sub, "v1.xml"), v1.WriteTo); err != nil {
		return err
	}
	if err := writeAtomic(fsys, filepath.Join(sub, "latest.xml"), h.latest.WriteTo); err != nil {
		return err
	}
	for i, d := range h.deltas {
		if err := writeAtomic(fsys, filepath.Join(sub, deltaFile(i+1)), d.WriteTo); err != nil {
			return err
		}
	}
	counter := func(w io.Writer) (int64, error) {
		n, err := io.WriteString(w, strconv.Itoa(h.versions))
		return int64(n), err
	}
	return writeAtomic(fsys, filepath.Join(sub, "versions"), counter)
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

// Load reads a store previously written by Save or Open into memory,
// replaying any journal segments left beside the snapshot. The
// returned store is in-memory (not attached to dir); use Open to keep
// writing durably.
func Load(dir string, opts diff.Options) (*Store, error) {
	s := New(opts)
	if err := recoverInto(s, faultfs.OS{}, dir); err != nil {
		return nil, err
	}
	return s, nil
}

// versionLocked reconstructs version n; the caller holds h's lock.
func versionLocked(h *history, n int) (*dom.Node, error) {
	doc := h.latest.Clone()
	for v := h.versions; v > n; v-- {
		if err := applyInverse(doc, h.deltas[v-2]); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

func deltaFile(n int) string { return fmt.Sprintf("delta-%04d.xml", n) }

// escapeID makes a document identifier safe as a directory name.
func escapeID(id string) string {
	var b strings.Builder
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '.':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "_%02x", c)
		}
	}
	return b.String()
}

func unescapeID(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '_' && i+2 < len(s) {
			if v, err := strconv.ParseUint(s[i+1:i+3], 16, 8); err == nil {
				b.WriteByte(byte(v))
				i += 2
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// snapshotLoadOptions parse persisted XML with full fidelity: the
// serializer adds no indentation, so whitespace-only text in a
// snapshot or journal record is genuine document content and must
// survive the round-trip for XIDs to line up with the original parse.
func snapshotLoadOptions() dom.ParseOptions {
	return dom.ParseOptions{KeepWhitespace: true, KeepComments: true, KeepProcInsts: true}
}
