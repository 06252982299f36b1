package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"xydiff/internal/faultfs"
)

// The write-ahead journal makes Put durable: before a version is
// acknowledged, a record carrying it is appended to the document's
// journal file. Records are length-prefixed and checksummed so that
// recovery can tell a torn tail (partial append cut short by a crash —
// harmless, the version was never acknowledged) from mid-log
// corruption (bit rot or tampering — refused with ErrCorrupt).
//
// On-disk record layout, all integers big-endian:
//
//	+0  uint32  payload length
//	+4  uint32  CRC32-C (Castagnoli) of the payload
//	+8  payload:
//	      1 byte   record kind (recordBase | recordDelta)
//	      uvarint  version number the record produces
//	      bytes    XML body — the version-1 document for recordBase,
//	               the completed delta for recordDelta
//
// A document's journal is dir/journal-<escaped id>.log. Records are
// written with a single Write call, so a crash leaves either a fully
// present record or a short tail, never interleaved halves.

// Record kinds.
const (
	recordBase  byte = 1 // full document, always version 1
	recordDelta byte = 2 // completed delta producing its version
)

const (
	journalHeaderLen = 8
	journalPrefix    = "journal-"
	journalSuffix    = ".log"
	// maxRecordLen bounds a single journal record; anything larger is
	// treated as corruption (a random length field from zeroed or
	// flipped bytes would otherwise make recovery read gigabytes).
	maxRecordLen = 1 << 30
)

// castagnoli is the CRC32-C table used by the journal (same polynomial
// as iSCSI and most modern WALs; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy says when journal appends reach stable storage.
type SyncPolicy int

// Journal sync policies.
const (
	// SyncAlways fsyncs the journal before a Put is acknowledged: an
	// acknowledged version survives power loss.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs open journals on a timer (Durability
	// .Interval, default 100ms): a crash loses at most the last
	// interval's acknowledged versions.
	SyncInterval
	// SyncOff never fsyncs explicitly; the OS flushes when it pleases.
	// A kernel crash or power loss can lose recent acknowledged
	// versions, a plain process crash cannot.
	SyncOff
)

// String renders the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("syncpolicy(%d)", int(p))
	}
}

// ParseSyncPolicy reads the flag spelling of a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("store: unknown sync policy %q (want always, interval or off)", s)
	}
}

// Durability configures Open. The zero value is the safest: SyncAlways
// through the real filesystem.
type Durability struct {
	// Sync is the journal fsync policy.
	Sync SyncPolicy
	// Interval is the flush period under SyncInterval (default 100ms).
	Interval time.Duration
	// FS overrides the filesystem (fault-injection tests); nil means
	// the real one.
	FS faultfs.FS
}

// DurabilityStats counts journal activity since the store opened.
type DurabilityStats struct {
	// Appends is how many journal records were written.
	Appends int64
	// AppendedBytes is the total size of those records, headers included.
	AppendedBytes int64
	// Syncs is how many journal fsyncs completed.
	Syncs int64
	// Checkpoints is how many snapshot+compaction cycles completed.
	Checkpoints int64
}

// durabilityCounters is the lock-free mutable form of DurabilityStats.
type durabilityCounters struct {
	appends, appendedBytes, syncs, checkpoints atomic.Int64
}

func (c *durabilityCounters) addAppend(bytes int64) {
	c.appends.Add(1)
	c.appendedBytes.Add(bytes)
}
func (c *durabilityCounters) addSync()       { c.syncs.Add(1) }
func (c *durabilityCounters) addCheckpoint() { c.checkpoints.Add(1) }

// DurabilityStats returns a snapshot of the journal activity counters
// (all zero for an in-memory store).
func (s *Store) DurabilityStats() DurabilityStats {
	return DurabilityStats{
		Appends:       s.stats.appends.Load(),
		AppendedBytes: s.stats.appendedBytes.Load(),
		Syncs:         s.stats.syncs.Load(),
		Checkpoints:   s.stats.checkpoints.Load(),
	}
}

// SyncPolicy returns the journal sync policy of a backed store.
func (s *Store) SyncPolicy() SyncPolicy { return s.policy }

// journalPath returns the journal file path for a document.
func journalPath(dir, id string) string {
	return filepath.Join(dir, journalPrefix+escapeID(id)+journalSuffix)
}

// encodeRecord renders one journal record: header plus payload.
func encodeRecord(kind byte, version int, body []byte) []byte {
	payload := make([]byte, 0, 1+binary.MaxVarintLen64+len(body))
	payload = append(payload, kind)
	payload = binary.AppendUvarint(payload, uint64(version))
	payload = append(payload, body...)
	rec := make([]byte, journalHeaderLen, journalHeaderLen+len(payload))
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
	return append(rec, payload...)
}

// decodePayload splits a verified payload into kind, version and body.
func decodePayload(payload []byte) (kind byte, version int, body []byte, err error) {
	if len(payload) < 2 {
		return 0, 0, nil, fmt.Errorf("payload too short (%d bytes)", len(payload))
	}
	kind = payload[0]
	v, n := binary.Uvarint(payload[1:])
	if n <= 0 || v == 0 || v > 1<<31 {
		return 0, 0, nil, fmt.Errorf("bad version varint")
	}
	return kind, int(v), payload[1+n:], nil
}

// journalWriter owns one document's journal file: an append-only
// handle plus the offset of the last fully written record, so a failed
// append can be cut back off instead of poisoning the log for every
// later record.
type journalWriter struct {
	mu   sync.Mutex
	fs   faultfs.FS
	path string
	f    faultfs.File
	off  int64 // end of the last complete record on disk
}

// openJournalWriter opens (creating if needed) the journal for
// appending, positioned after the existing content. Recovery has
// already truncated any torn tail by the time a writer opens.
func openJournalWriter(fsys faultfs.FS, path string) (*journalWriter, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	off := int64(0)
	if fi, err := fsys.Stat(path); err == nil {
		off = fi.Size()
	}
	return &journalWriter{fs: fsys, path: path, f: f, off: off}, nil
}

// append writes one record, optionally fsyncing, as a single Write. On
// failure it truncates the file back to the last good offset so a
// short write cannot masquerade as mid-log corruption later; if even
// the truncate fails the error reports both.
func (w *journalWriter) append(rec []byte, syncNow bool) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(rec); err != nil {
		if terr := w.fs.Truncate(w.path, w.off); terr != nil {
			return 0, fmt.Errorf("journal append failed (%w) and truncate back to %d failed (%w)", err, w.off, terr)
		}
		return 0, fmt.Errorf("journal append: %w", err)
	}
	w.off += int64(len(rec))
	if syncNow {
		if err := w.f.Sync(); err != nil {
			return 0, fmt.Errorf("journal sync: %w", err)
		}
	}
	return int64(len(rec)), nil
}

func (w *journalWriter) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Sync()
}

func (w *journalWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	syncErr := w.f.Sync()
	if err := w.f.Close(); err != nil {
		return err
	}
	return syncErr
}

// journalFor returns (creating if needed) the journal writer for id.
func (s *Store) journalFor(id string) (*journalWriter, error) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("store: closed")
	}
	if w := s.journals[id]; w != nil {
		return w, nil
	}
	w, err := openJournalWriter(s.fs, journalPath(s.dir, id))
	if err != nil {
		return nil, fmt.Errorf("store: open journal for %s: %w", id, err)
	}
	s.journals[id] = w
	return w, nil
}

// journalAppend serializes content (a *dom.Node base document or a
// *delta.Delta) into a record for version and appends it to id's
// journal, honouring the store's sync policy; it returns the length of
// the serialized body. Called from Put under the document's write
// lock, before the in-memory commit.
func (s *Store) journalAppend(id string, version int, kind byte, content io.WriterTo) (int, error) {
	var body bytes.Buffer
	if _, err := content.WriteTo(&body); err != nil {
		return 0, fmt.Errorf("store: serialize journal record for %s version %d: %w", id, version, err)
	}
	w, err := s.journalFor(id)
	if err != nil {
		return 0, err
	}
	rec := encodeRecord(kind, version, body.Bytes())
	n, err := w.append(rec, s.policy == SyncAlways)
	if err != nil {
		return 0, fmt.Errorf("store: journal %s version %d: %w", id, version, err)
	}
	s.stats.addAppend(n)
	if s.policy == SyncAlways {
		s.stats.addSync()
	}
	return body.Len(), nil
}

// journalRetire removes a document's journal file after a checkpoint
// covered its content. The caller holds the document's history lock,
// so no append can race the removal.
func (s *Store) journalRetire(id string) error {
	s.jmu.Lock()
	w := s.journals[id]
	delete(s.journals, id)
	s.jmu.Unlock()
	if w != nil {
		if err := w.close(); err != nil {
			return err
		}
	}
	path := journalPath(s.dir, id)
	if err := s.fs.Remove(path); err != nil {
		if _, statErr := s.fs.Stat(path); statErr != nil {
			return nil // never created — nothing to retire
		}
		return err
	}
	return nil
}

// syncLoop is the SyncInterval flusher: it fsyncs every open journal
// once per interval until Close.
func (s *Store) syncLoop() {
	defer close(s.syncDone)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopSync:
			return
		case <-t.C:
			s.jmu.Lock()
			writers := make([]*journalWriter, 0, len(s.journals))
			for _, w := range s.journals {
				writers = append(writers, w)
			}
			s.jmu.Unlock()
			for _, w := range writers {
				if err := w.sync(); err == nil {
					s.stats.addSync()
				}
			}
		}
	}
}
