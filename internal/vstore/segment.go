package vstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"xydiff/internal/faultfs"
)

// Each shard's write-ahead log is a sequence of segment files shared
// by every document in the shard, instead of one journal per document.
// Records carry the document id so replay can demultiplex them. Every
// record is length-prefixed and CRC32-C checksummed, so crash recovery
// tells a torn tail (truncated) from mid-log damage (refused). The
// framing is the one the old per-document journals used (migrate.go):
// encodeRecord is its one writer and walkLog its one reader, so
// recovery, the scrubber and Migrate all verify it the same way.
//
// On-disk record layout, all integers big-endian:
//
//	+0  uint32  payload length
//	+4  uint32  CRC32-C (Castagnoli) of the payload
//	+8  payload:
//	      1 byte   record kind (recordBase | recordDelta)
//	      uvarint  document id length
//	      bytes    document id
//	      uvarint  version number the record produces
//	      bytes    XML body — the version-1 document for recordBase,
//	               the completed delta for recordDelta
//
// A shard's segments are shard-NNN/seg-%08d.log, replayed in sequence
// order. A group-committed batch is written with a single Write call
// and never straddles a segment boundary (the writer rotates first),
// so a crash leaves at most one torn tail in the highest-numbered
// segment.

// Record kinds (the old per-document journals used the same values).
const (
	recordBase  byte = 1 // full document, always version 1
	recordDelta byte = 2 // completed delta producing its version
)

const (
	// segHeaderLen is the fixed frame header: length + checksum.
	segHeaderLen = 8
	// maxRecordLen bounds one record; a length field beyond it is
	// corruption, not a legitimately huge record (a random length from
	// zeroed or flipped bytes would otherwise make a walk read
	// gigabytes).
	maxRecordLen = 1 << 30
	segPrefix    = "seg-"
	segSuffix    = ".log"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the CRC32-C of b: the record frame's, and the one the
// snapshot checksum manifest records per content file.
func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// segName renders a segment file name for a sequence number.
func segName(seq int) string { return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix) }

// parseSegName extracts the sequence number from a segment file name,
// or ok=false when the name is not a segment's.
func parseSegName(name string) (seq int, ok bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	n, err := strconv.Atoi(mid)
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// encodeRecord renders one segment record, header plus payload, into
// one allocation, and returns with it the record's copy of body, capped
// at its length. That copy is the one a Put keeps resident: the encoder
// buffer body came in is left for the collector, and no second copy is
// made.
func encodeRecord(kind byte, id string, version int, body []byte) (rec, kept []byte) {
	rec = make([]byte, segHeaderLen, segHeaderLen+1+2*binary.MaxVarintLen64+len(id)+len(body))
	rec = append(rec, kind)
	rec = binary.AppendUvarint(rec, uint64(len(id)))
	rec = append(rec, id...)
	rec = binary.AppendUvarint(rec, uint64(version))
	rec = append(rec, body...)
	payload := rec[segHeaderLen:]
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(rec[4:8], checksum(payload))
	return rec, rec[len(rec)-len(body) : len(rec) : len(rec)]
}

// logDamage describes the first verification failure in a log file.
type logDamage struct {
	// off is where the bad record's header starts.
	off int64
	// reason says which check failed.
	reason string
	// torn is true when the failure is consistent with a crash mid-
	// append: the final record simply stops early. Torn tails are
	// legitimate in an active log (recovery truncates them) but are
	// corruption in a sealed one, so the caller decides.
	torn bool
}

// walkLog verifies every framed record in data, calling visit (if
// non-nil) with each verified payload and its header offset. It stops
// at the first failure and returns it; nil means the whole log
// verified. A visit error is reported as damage at that record — the
// caller's payload decoder is part of verification.
func walkLog(data []byte, visit func(off int64, payload []byte) error) *logDamage {
	off := int64(0)
	for int(off) < len(data) {
		rest := data[off:]
		if len(rest) < segHeaderLen {
			return &logDamage{off: off, reason: fmt.Sprintf("torn header: %d trailing bytes", len(rest)), torn: true}
		}
		n := binary.BigEndian.Uint32(rest[0:4])
		if n == 0 || n > maxRecordLen {
			return &logDamage{off: off, reason: fmt.Sprintf("implausible record length %d", n)}
		}
		if uint64(len(rest)) < segHeaderLen+uint64(n) {
			return &logDamage{off: off, reason: fmt.Sprintf("torn record: %d byte payload, %d on disk", n, len(rest)-segHeaderLen), torn: true}
		}
		payload := rest[segHeaderLen : segHeaderLen+int(n)]
		if checksum(payload) != binary.BigEndian.Uint32(rest[4:8]) {
			return &logDamage{off: off, reason: "checksum mismatch"}
		}
		if visit != nil {
			if err := visit(off, payload); err != nil {
				return &logDamage{off: off, reason: err.Error()}
			}
		}
		off += segHeaderLen + int64(n)
	}
	return nil
}

// decodePayload splits a verified payload into kind, document id,
// version and body.
func decodePayload(payload []byte) (kind byte, id string, version int, body []byte, err error) {
	if len(payload) < 3 {
		return 0, "", 0, nil, fmt.Errorf("payload too short (%d bytes)", len(payload))
	}
	kind = payload[0]
	rest := payload[1:]
	idLen, n := binary.Uvarint(rest)
	if n <= 0 || idLen > uint64(len(rest)-n) {
		return 0, "", 0, nil, fmt.Errorf("bad id length varint")
	}
	rest = rest[n:]
	id = string(rest[:idLen])
	rest = rest[idLen:]
	v, n := binary.Uvarint(rest)
	if n <= 0 || v == 0 || v > 1<<31 {
		return 0, "", 0, nil, fmt.Errorf("bad version varint")
	}
	return kind, id, int(v), rest[n:], nil
}

// segmentWriter owns a shard's active segment: an append-only handle,
// the offset of the last fully written batch (so a failed append can
// be cut back off), and rotation once the segment outgrows maxBytes.
// The file is opened lazily on the first append, so a read-only reopen
// creates no empty segments.
type segmentWriter struct {
	mu       sync.Mutex
	fs       faultfs.FS
	dir      string // the shard directory
	seq      int    // sequence number of the active (possibly unopened) segment
	f        faultfs.File
	off      int64 // end of the last complete batch on disk
	maxBytes int64
	// onSeal, if set, is called (outside mu? no — under mu, must not
	// call back into the writer) after a rotation seals a segment.
	onSeal func()
}

// newSegmentWriter prepares a writer whose first append lands in the
// segment numbered nextSeq.
func newSegmentWriter(fsys faultfs.FS, dir string, nextSeq int, maxBytes int64) *segmentWriter {
	if nextSeq < 1 {
		nextSeq = 1
	}
	return &segmentWriter{fs: fsys, dir: dir, seq: nextSeq, maxBytes: maxBytes}
}

// open creates the active segment file; the caller holds w.mu.
func (w *segmentWriter) open() error {
	path := filepath.Join(w.dir, segName(w.seq))
	f, err := w.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("open segment %s: %w", path, err)
	}
	w.f = f
	w.off = 0
	if fi, err := w.fs.Stat(path); err == nil {
		w.off = fi.Size()
	}
	return nil
}

// appendBatch writes a group-committed batch — the concatenation of
// pre-encoded records — as a single Write, optionally fsyncing before
// returning. If the batch would push the active segment past maxBytes
// the writer rotates first, so a batch never straddles segments and a
// crash tears at most the final batch of the final segment. On write
// failure the segment is truncated back to the last good offset and
// the whole batch fails (no record of it is acknowledged).
func (w *segmentWriter) appendBatch(batch []byte, syncNow bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil && w.off > 0 && w.off+int64(len(batch)) > w.maxBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if w.f == nil {
		if err := w.open(); err != nil {
			return err
		}
	}
	if _, err := w.f.Write(batch); err != nil {
		path := filepath.Join(w.dir, segName(w.seq))
		if terr := w.fs.Truncate(path, w.off); terr != nil {
			return fmt.Errorf("segment append failed (%w) and truncate back to %d failed (%w)", err, w.off, terr)
		}
		return fmt.Errorf("segment append: %w", err)
	}
	w.off += int64(len(batch))
	if syncNow {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("segment sync: %w", err)
		}
	}
	return nil
}

// rotateLocked seals the active segment (fsync + close) and points the
// writer at the next sequence number; the caller holds w.mu.
func (w *segmentWriter) rotateLocked() error {
	if w.f != nil {
		syncErr := w.f.Sync()
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("seal segment %d: %w", w.seq, err)
		}
		if syncErr != nil {
			return fmt.Errorf("seal segment %d: %w", w.seq, syncErr)
		}
		w.f = nil
	}
	w.seq++
	w.off = 0
	if w.onSeal != nil {
		w.onSeal()
	}
	return nil
}

// seal closes the active segment, if any, so compaction can fold every
// on-disk segment; the next append opens a fresh one.
func (w *segmentWriter) seal() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	return w.rotateLocked()
}

// activeSeq returns the sequence number the next append writes to, and
// whether that segment file exists yet.
func (w *segmentWriter) activeSeq() (seq int, open bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq, w.f != nil
}

// sync flushes the active segment (SyncInterval policy).
func (w *segmentWriter) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	return w.f.Sync()
}

// close flushes and closes the active segment.
func (w *segmentWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	syncErr := w.f.Sync()
	if err := w.f.Close(); err != nil {
		return err
	}
	w.f = nil
	return syncErr
}

// escapeID makes a document identifier safe as a directory name (the
// old per-document layout escaped the same way, so migrated snapshots
// keep their names).
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
