// Package vstore is the change-centric version repository the diff
// serves in the Xyleme architecture (the paper's Figure 1 and Section
// 2): each document is kept as its chain of completed deltas, so any
// past version reconstructs byte-identically and "queries about the
// past" are queries over stored delta documents. It is a sharded,
// group-committed engine sized for millions of documents; every
// acknowledged version survives a crash:
//
//   - Documents are hashed across N shards. Each shard owns ONE
//     append-only segment journal shared by every document in the
//     shard, instead of one journal file per document. At crawl scale
//     this turns millions of tiny files into a few dozen.
//   - Each shard runs a group-commit writer: concurrent Puts are
//     batched into a single write + fsync, and every Put in the batch
//     is acknowledged when the batch is durable. Under store.SyncAlways
//     the durability guarantee is unchanged — no Put is acknowledged
//     before its record is on stable storage — but the fsync cost is
//     amortized over the whole batch.
//   - Background compaction folds sealed segments into per-document
//     snapshots and retires them, in strict write → fsync → rename →
//     retire order (the xyvet segorder analyzer enforces the ordering
//     in this package's source). Compaction compresses each snapshot
//     content file it writes against the chain before it;
//     the segment journal and the Put path stay raw, so only recovery
//     and the scrubber ever inflate (snapfile.go).
//   - In memory each document's chain — version 1 and its deltas — is
//     held as frames (frame.go, resident.go), which a read walk thaws
//     instead of parsing XML. Every byte on disk and on the wire stays
//     XML: compaction and the scrubber render it from the frames, and
//     a chain loaded at open, like the version 1 a first Put keeps,
//     stays XML until a walk first decodes it.
//   - Materialized current versions live in a bounded LRU, so
//     reconstruction cost is paid once per cache residency, not once
//     per read. A tree the LRU evicts is kept as a keyframe, the tree
//     frozen into one byte slice (frame.go), so a miss thaws the latest
//     version with no parse; only a document with no current keyframe
//     replays its base + delta chain. Keyframes are never written.
//
// The on-disk layout under dir/:
//
//	MANIFEST.json                    engine marker: format + shard count
//	shard-000/seg-00000001.log       segment journal (many documents), raw
//	shard-000/docs/<escaped id>/     per-document snapshot:
//	    v1.xml                       version 1, one zlib stream with
//	                                 an empty preset dictionary
//	    delta-0001.xml ...           delta n → n+1, one zlib stream each,
//	                                 its preset dictionary the last
//	                                 32 KiB of the chain before it
//	    sums                         "<file> <crc32c> <length>" of the
//	                                 decoded parts, per content file
//	    versions                     version counter, renamed last
//
// The format marker is "vstore-v3". A "vstore-v1" directory (content
// files all raw XML) or "vstore-v2" one (gzip members) opens as it is;
// the marker is rewritten to v3 before the first file compaction
// writes lands, so a build that cannot decode the newer files refuses
// the directory instead of reading them as bit rot. Every encoding
// mixes freely: the loader tells them apart by their headers.
//
// Open("") keeps the chains in memory only, for callers that need no
// durability. A directory in the old per-document layout
// (journal-<id>.log files plus one snapshot directory per document) is
// refused with ErrNeedsMigration; `xystore migrate` converts it in
// place with a backup, and Migrate is the only code that reads it.
package vstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/faultfs"
	"xydiff/internal/store"
	"xydiff/internal/xid"
)

// Sentinel errors callers (notably the HTTP server) can test with
// errors.Is to distinguish "not found" from internal failures.
var (
	// ErrUnknownDocument reports that no document with the given
	// identifier is stored.
	ErrUnknownDocument = errors.New("unknown document")
	// ErrNoSuchVersion reports a version or delta index outside the
	// stored range.
	ErrNoSuchVersion = errors.New("no such version")
)

// Config tunes the engine. The zero value picks production defaults
// (16 shards, SyncAlways, a 4096-document version cache, 64 MiB
// segments).
type Config struct {
	// Shards is the number of hash-of-id shards. The value is fixed at
	// directory creation and recorded in the manifest; reopening uses
	// the recorded count regardless of this field (default 16).
	Shards int
	// Sync is the segment fsync policy: SyncAlways means no Put is
	// acknowledged before its batch is durable.
	Sync store.SyncPolicy
	// CacheSize bounds the LRU of materialized current versions
	// (default 4096 documents). An evicted document keeps its latest
	// version as an in-memory keyframe, which a miss restores instead of
	// replaying the chain; keyframes are not counted here.
	CacheSize int
	// Scrub configures the background integrity scrubber; the zero
	// value disables the timer (ScrubPass still runs on demand).
	Scrub ScrubConfig
	// OpenDegraded tolerates corrupt files at open instead of refusing:
	// damage is quarantined (renamed aside, never deleted) and the
	// affected documents serve their latest intact version flagged with
	// a DegradedError. The default false keeps the strict contract — a
	// library caller must opt in to partial data.
	OpenDegraded bool
	// FS overrides the filesystem (fault-injection tests); nil means
	// the real one.
	FS faultfs.FS

	// segmentBytes rotates the active segment once it grows past this
	// size (default 64 MiB); this package's tests shrink it to leave
	// sealed segments behind.
	segmentBytes int64
	// compactSegments triggers background compaction of a shard once it
	// has this many sealed segments; 0 picks the default 8, negative
	// disables background compaction (Checkpoint still works).
	compactSegments int
}

// ScrubConfig tunes the background scrubber (scrub.go).
type ScrubConfig struct {
	// Interval is the pause between integrity cycles; 0 or negative
	// disables the background timer.
	Interval time.Duration
	// Throttle caps scrub reads in bytes per second; 0 picks 8 MiB/s
	// (defaultScrubThrottle), negative disables pacing.
	Throttle int64
	// NoRepair stops the scrubber from rewriting damage it could cover
	// from resident data: every finding is quarantined instead. The
	// zero value (repair on) is the production default.
	NoRepair bool
}

// Sharding, group-commit and flush tuning. Every workload measured so
// far runs these values; none has shown another one winning.
const (
	// defaultShards is the shard count of a fresh directory.
	defaultShards = 16
	// syncInterval is the flush period under store.SyncInterval: a
	// crash loses at most the last interval's acknowledged versions.
	syncInterval = 100 * time.Millisecond
	// maxBatch caps how many records one fsync may acknowledge.
	maxBatch = 128
	// maxDelay bounds how long the group-commit writer waits to fill a
	// batch once at least one record is pending and more writers are in
	// flight. A lone writer is never delayed.
	maxDelay = 2 * time.Millisecond
	// commitQueueDepth bounds records waiting for a shard's
	// group-commit writer; a submission beyond it fails fast with
	// ErrBusy so the caller can shed load instead of blocking.
	commitQueueDepth = 1024
)

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = defaultShards
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.segmentBytes <= 0 {
		c.segmentBytes = 64 << 20
	}
	if c.compactSegments == 0 {
		c.compactSegments = 8
	}
	if c.FS == nil {
		c.FS = faultfs.OS{}
	}
	return c
}

// Store is the sharded engine. All methods are safe for concurrent
// use; writes to different documents group-commit together, writes to
// the same document serialize on its state lock.
type Store struct {
	opts diff.Options
	cfg  Config
	obs  Observer
	dir  string
	fs   faultfs.FS

	shards []*shard
	cache  *versionCache

	mu     sync.Mutex // guards closed
	closed bool

	formatMu sync.Mutex // guards format and the manifest rewrite
	format   string     // the manifest's format marker

	// stopLoops cancels the context the background loops (syncLoop,
	// compactLoop, scrubLoop) run under; loops counts those running.
	stopLoops context.CancelFunc
	loops     sync.WaitGroup
	compactCh chan struct{} // nudges compactLoop when a segment seals

	stats    engineCounters
	recovery RecoveryStats
}

// docState is one document's resident state: the version count plus
// its history, version 1 and the delta chain, as parts held as frames
// or, until a walk first decodes them, as XML (resident.go). Trees are
// NOT held here — the materialized latest lives in the store's version
// cache, and is rebuilt from these parts on a miss the cache cannot
// restore.
type docState struct {
	mu       sync.RWMutex
	versions int
	base     *part   // version 1
	deltas   []*part // deltas[i] transforms version i+1 into i+2
	// hist counts the parts' bytes by form in the store's statistics.
	hist *historyBytes
	// snapVersions is how many versions the on-disk snapshot covers
	// (0 when the document has never been compacted).
	snapVersions int
	// snap counts the snapshot's content files, their bytes on disk and
	// the bytes of the parts they decode to.
	snap snapBytes
	// degraded marks a document with a quarantined slice of history:
	// versions 1..versions are intact and keep serving, anything beyond
	// answers with a DegradedError instead of a 404 or a 500. Puts keep
	// working, extending the intact chain.
	degraded       bool
	degradedReason string
}

// shard owns one slice of the document space: its documents, its
// segment journal and its group-commit writer.
type shard struct {
	idx int
	dir string

	mu   sync.RWMutex // guards docs map only, never document contents
	docs map[string]*docState
	// hist is the store's count of resident history bytes, which the
	// shard's documents keep.
	hist *historyBytes

	seg *segmentWriter

	sendMu     sync.RWMutex // guards sendClosed vs concurrent submits
	sendClosed bool
	commitCh   chan *commitReq
	writerDone chan struct{}

	compactMu sync.Mutex // serializes Checkpoint, background compaction and scrub repair

	// lastCompact is when the shard last completed a compaction pass
	// (unix seconds; 0 = not yet this run). Surfaced in /healthz so a
	// stuck compactLoop is visible.
	lastCompact atomic.Int64

	stats shardCounters
	// inflight counts Puts between submission intent and
	// acknowledgement; the group-commit writer lingers for a batch only
	// while more are in flight than it has gathered.
	inflight atomic.Int64
}

// shardFor hashes a document id onto its shard.
func (s *Store) shardFor(id string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id)) // fnv's Write cannot fail
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

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

// Observer receives every successful non-initial Put: a first version
// is not a transition and is not observed. It is invoked synchronously
// under the document's lock, so per-document call order matches
// version order; it must not call back into the store for the same
// document, must not mutate the document trees, and must not retain
// them — or anything pointing into them, such as a delta.Targets — past
// its return. (The delta's ops are immutable and may be kept.) The
// consumers of Figure 1 hang off this hook as one warehouse.Pipeline:
// the server's observer and the library warehouse's both call it.
type Observer func(Observation)

// SetObserver installs the hook called after every versioning diff. It
// must be set before the store starts serving concurrent Puts.
func (s *Store) SetObserver(obs Observer) { s.obs = obs }

// state returns (creating if needed) the document's state.
func (sh *shard) state(id string) *docState {
	sh.mu.RLock()
	st := sh.docs[id]
	sh.mu.RUnlock()
	if st != nil {
		return st
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st = sh.docs[id]; st == nil {
		st = &docState{hist: sh.hist}
		sh.docs[id] = st
	}
	return st
}

// lookup returns the document's state, or nil when unknown.
func (sh *shard) lookup(id string) *docState {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.docs[id]
}

// Put installs a new version of the document identified by id and
// returns its version number (1-based) and the delta from the previous
// version (nil for the first). The store keeps its own copy of doc.
func (s *Store) Put(id string, doc *dom.Node) (int, *delta.Delta, error) {
	return s.PutMatcherContext(context.Background(), id, doc, "")
}

// PutMatcherContext is Put honouring context cancellation, with a
// per-call matcher override. The diff against the previous version
// aborts with ctx.Err() once ctx is done, leaving the stored history
// untouched. A non-empty matcher replaces the store's configured
// Options.Matcher for this version's diff only; the stored delta
// format is identical for every matcher, so histories may freely mix
// them.
//
// The version's record reaches the shard's segment journal — and,
// under SyncAlways, stable storage — before PutMatcherContext returns:
// a nil error means the version survives a crash. When the shard's
// group-commit queue is saturated the Put fails fast with ErrBusy
// instead of blocking, so callers can shed load.
func (s *Store) PutMatcherContext(ctx context.Context, id string, doc *dom.Node, matcher diff.Matcher) (int, *delta.Delta, error) {
	r, err := s.PutDetailed(ctx, id, doc.Clone(), matcher)
	return r.Version, r.Delta, err
}

// PutDetailed is PutMatcherContext reporting, besides the version and
// the delta, the size of the delta's encoding. The store encodes a
// delta exactly once, into the body of its segment record; that
// body's length is what the observer and the caller are given. Once
// the record is durable, the delta is frozen into the frame the
// document keeps; version 1 is kept as its record's XML, which the
// first walk that needs it turns into a frame, as it does a version 1
// loaded from disk.
//
// Unlike Put, PutDetailed takes ownership of doc: the store stamps it
// with XIDs and keeps it as the cached latest version, so the caller
// must not read or change it afterwards, whether or not the Put
// succeeded.
func (s *Store) PutDetailed(ctx context.Context, id string, doc *dom.Node, matcher diff.Matcher) (PutResult, error) {
	if doc == nil || doc.Type != dom.Document {
		return PutResult{}, fmt.Errorf("vstore: need a Document node")
	}
	opts := s.opts
	if matcher != "" {
		opts.Matcher = matcher
	}
	sh := s.shardFor(id)
	st := sh.state(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.versions == 0 {
		xid.Assign(doc)
		body, err := serializeTree(doc)
		if err != nil {
			return PutResult{}, fmt.Errorf("vstore: serialize %s version 1: %w", id, err)
		}
		rec, kept := encodeRecord(recordBase, id, 1, body)
		if err := s.appendDurable(sh, rec); err != nil {
			return PutResult{}, err
		}
		st.base = st.keep(xmlPart(kept))
		st.versions = 1
		s.cache.put(id, doc, 1)
		return PutResult{Version: 1}, nil
	}
	old, err := s.materializeLocked(id, st)
	if err != nil {
		return PutResult{}, err
	}
	r, err := diff.DiffDetailedContext(ctx, old, doc, opts)
	if err != nil {
		return PutResult{}, fmt.Errorf("vstore: diff %s: %w", id, err)
	}
	body, err := r.Delta.MarshalText()
	if err != nil {
		return PutResult{}, fmt.Errorf("vstore: serialize %s delta %d: %w", id, st.versions, err)
	}
	rec, kept := encodeRecord(recordDelta, id, st.versions+1, body)
	if err := s.appendDurable(sh, rec); err != nil {
		return PutResult{}, err
	}
	frame, ok := freezeDelta(r.Delta)
	st.deltas = append(st.deltas, st.keep(putPart(frame, ok, body, kept)))
	st.versions++
	s.cache.put(id, doc, st.versions)
	if s.obs != nil {
		s.obs(Observation{ID: id, Version: st.versions, Old: old, New: doc, Result: r, DeltaBytes: len(body)})
	}
	return PutResult{Version: st.versions, Delta: r.Delta, DeltaBytes: len(body)}, nil
}

// PutResult is what PutDetailed reports about an installed version.
type PutResult struct {
	Version int
	// Delta leads from the previous version to this one; nil for the
	// first version.
	Delta *delta.Delta
	// DeltaBytes is the length of Delta's XML encoding — of the bytes
	// the journal record carries and Aggregate(id, Version-1, Version)
	// serializes to — or 0 for the first version.
	DeltaBytes int
}

// materializeLocked returns the document's latest version as a tree
// with replay-canonical XIDs, from the LRU when resident, from its
// keyframe when one is current, and by replaying base + deltas
// otherwise: a read walk with no targets. The caller holds st.mu (read
// or write); the returned tree is the cache's copy — callers that hand
// it out must Clone.
func (s *Store) materializeLocked(id string, st *docState) (*dom.Node, error) {
	return s.read(id, st, nil, nil)
}

// reading returns id's state read-locked, or an error when the
// document is unknown (a state published by a first Put still in
// flight counts as unknown). The caller must RUnlock it.
func (s *Store) reading(id string) (*docState, error) {
	st := s.shardFor(id).lookup(id)
	if st == nil {
		return nil, fmt.Errorf("vstore: %w %q", ErrUnknownDocument, id)
	}
	st.mu.RLock()
	if st.versions == 0 {
		if st.degraded {
			err := &DegradedError{id: id, Reason: st.degradedReason}
			st.mu.RUnlock()
			return nil, err
		}
		st.mu.RUnlock()
		return nil, fmt.Errorf("vstore: %w %q", ErrUnknownDocument, id)
	}
	//xyvet:allow lockbalance -- deliberate handoff: the caller receives st read-locked and must RUnlock it
	return st, nil
}

// Latest returns a copy of the current version and its version number.
func (s *Store) Latest(id string) (*dom.Node, int, error) {
	st, err := s.reading(id)
	if err != nil {
		return nil, 0, err
	}
	defer st.mu.RUnlock()
	doc, err := s.materializeLocked(id, st)
	if err != nil {
		return nil, 0, err
	}
	return doc.Clone(), st.versions, nil
}

// Versions returns how many versions of id are recorded (0 if none).
func (s *Store) Versions(id string) int {
	st := s.shardFor(id).lookup(id)
	if st == nil {
		return 0
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.versions
}

// IDs lists the stored document identifiers, sorted. Documents whose
// first Put is still in flight are omitted.
func (s *Store) IDs() []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		states := make(map[string]*docState, len(sh.docs))
		for id, st := range sh.docs {
			states[id] = st
		}
		sh.mu.RUnlock()
		for id, st := range states {
			st.mu.RLock()
			ok := st.versions > 0
			st.mu.RUnlock()
			if ok {
				out = append(out, id)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Version reconstructs version n (1-based) of the document by the read
// walk: forward from the stored base or backward from the latest
// version, whichever decodes fewer stored bytes.
func (s *Store) Version(id string, n int) (*dom.Node, error) {
	st, err := s.reading(id)
	if err != nil {
		return nil, err
	}
	defer st.mu.RUnlock()
	if err := st.checkVersion(id, n); err != nil {
		return nil, err
	}
	var doc *dom.Node
	_, err = s.read(id, st, []int{n}, func(_ int, d *dom.Node, own bool) error {
		doc = private(d, own)
		return nil
	})
	return doc, err
}

// VersionXML is Version serialized: version n's canonical XML, the
// bytes Version(id, n) would write, or Version's error. No tree is
// handed out, so none is copied for the caller: the latest version is
// serialized from the cached tree under the document's read lock, and a
// past version from the read walk's own tree once the lock is released.
func (s *Store) VersionXML(id string, n int) ([]byte, error) {
	body, _, err := s.readXML(id, n, false)
	return body, err
}

// LatestXML is Latest serialized: the latest version's canonical XML
// and its version number, serialized from the cached tree with no copy.
func (s *Store) LatestXML(id string) ([]byte, int, error) {
	return s.readXML(id, 0, true)
}

// readXML is VersionXML, or LatestXML when latest is set (n is then
// ignored), returning the version it serialized.
func (s *Store) readXML(id string, n int, latest bool) ([]byte, int, error) {
	st, err := s.reading(id)
	if err != nil {
		return nil, 0, err
	}
	if latest {
		n = st.versions
	} else if err := st.checkVersion(id, n); err != nil {
		st.mu.RUnlock()
		return nil, 0, err
	}
	// Version 1's length sizes the buffer: later versions of a
	// document are of a piece with it.
	size := st.base.xmlLen()
	buf := make([]byte, 0, size+size/8)
	var own *dom.Node // the walk's tree, serialized once the lock is released
	if latest {
		var doc *dom.Node
		if doc, err = s.materializeLocked(id, st); err == nil {
			buf = doc.AppendXML(buf)
		}
	} else {
		_, err = s.read(id, st, []int{n}, func(_ int, d *dom.Node, mine bool) error {
			if mine {
				own = d
			} else {
				buf = d.AppendXML(buf) // the cache's tree, or one the walk goes on with
			}
			return nil
		})
	}
	st.mu.RUnlock()
	if err != nil {
		return nil, 0, err
	}
	if own != nil {
		buf = own.AppendXML(buf)
	}
	return buf, n, nil
}

// checkVersion is Version's answer for a version that cannot be
// served: past the end of a degraded document the history was there
// and is quarantined, anywhere else outside 1..versions it never
// existed. The caller holds the state lock.
func (st *docState) checkVersion(id string, n int) error {
	if n > st.versions && st.degraded {
		return &DegradedError{id: id, Reason: st.degradedReason, Intact: st.versions}
	}
	if n < 1 || n > st.versions {
		return fmt.Errorf("vstore: %s has versions 1..%d, not %d: %w", id, st.versions, n, ErrNoSuchVersion)
	}
	return nil
}

// checkRange is checkVersion for both ends of a delta range.
func (st *docState) checkRange(id string, from, to int) error {
	if (from > st.versions || to > st.versions) && st.degraded {
		return &DegradedError{id: id, Reason: st.degradedReason, Intact: st.versions}
	}
	if from < 1 || from > st.versions || to < 1 || to > st.versions {
		return fmt.Errorf("vstore: version range %d..%d outside 1..%d: %w", from, to, st.versions, ErrNoSuchVersion)
	}
	return nil
}

// DeltasBetween returns the delta sequence transforming version from
// into version to. When from > to, the deltas are inverted and
// returned in reverse order, so applying them in order still works.
func (s *Store) DeltasBetween(id string, from, to int) ([]*delta.Delta, error) {
	st, err := s.reading(id)
	if err != nil {
		return nil, err
	}
	defer st.mu.RUnlock()
	if err := st.checkRange(id, from, to); err != nil {
		return nil, err
	}
	var out []*delta.Delta
	switch {
	case from < to:
		for v := from; v < to; v++ {
			d, err := s.decodeDelta(st, v-1)
			if err != nil {
				return nil, err
			}
			out = append(out, d)
		}
	case from > to:
		for v := from; v > to; v-- {
			d, err := s.decodeDelta(st, v-2)
			if err != nil {
				return nil, err
			}
			inv, err := d.Invert()
			if err != nil {
				return nil, fmt.Errorf("vstore: invert %s delta %d: %w", id, v-1, err)
			}
			out = append(out, inv)
		}
	}
	return out, nil
}

// decodeDelta is st.delta(i) as a read that hands it out gets it,
// counted in the store's statistics, for reads that hand out stored
// deltas rather than walk through them.
func (s *Store) decodeDelta(st *docState, i int) (*delta.Delta, error) {
	s.stats.deltasDecoded.Add(1)
	return st.delta(i, true)
}

// Close stops the background loops and the per-shard group-commit
// writers: a scrub cycle in flight is canceled, not waited out, queued
// records are flushed and fsynced, segment files closed. The store stays readable; writes after Close fail, except in
// a store without a directory, which has nothing to stop.
func (s *Store) Close() error {
	if s.dir == "" {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.stopLoops()
	s.loops.Wait()
	var firstErr error
	for _, sh := range s.shards {
		sh.sendMu.Lock()
		if !sh.sendClosed {
			sh.sendClosed = true
			close(sh.commitCh)
		}
		sh.sendMu.Unlock()
	}
	for _, sh := range s.shards {
		<-sh.writerDone
		if err := sh.seg.close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("vstore: close shard %d segment: %w", sh.idx, err)
		}
	}
	return firstErr
}

// SyncPolicy returns the segment fsync policy.
func (s *Store) SyncPolicy() store.SyncPolicy { return s.cfg.Sync }

// serializeTree renders a document for a record body.
func serializeTree(doc *dom.Node) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := doc.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// snapshotLoadOptions parse persisted XML with full fidelity: the
// serializer adds no indentation, so whitespace-only text in a record
// is genuine content and must survive the round-trip for XIDs to line
// up.
func snapshotLoadOptions() dom.ParseOptions {
	return dom.ParseOptions{KeepWhitespace: true, KeepComments: true, KeepProcInsts: true}
}
