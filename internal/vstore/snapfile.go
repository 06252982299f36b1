package vstore

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"xydiff/internal/faultfs"
	"xydiff/internal/scrub"
)

// A snapshot content file (v1.xml, delta-NNNN.xml) holds one stored
// part of a document's chain: raw XML as a snapshot written before
// compression, or one gzip member as compaction writes it now. The
// loader tells them apart by the gzip magic (1f 8b), which no XML
// document can start with, so old and new files mix freely in one
// directory. Only the files are compressed: the segment journal and
// the resident chain stay raw, so the request path never inflates.
//
// The checksum manifest (sums) holds, per content file, the CRC-32C of
// the decoded XML and its length. The CRC is the one snapshots carried
// before compression, so an existing manifest stays valid for its raw
// files; the length bounds decoding, so a damaged or hostile file can
// never make the loader allocate more than the part's recorded size. A
// compressed file without a recorded length is corrupt.

// sumsName is the snapshot checksum manifest: one "<file> <crc32c>
// <length>" line per snapshot content file. Recovery and the scrubber
// verify against it; its absence is tolerated for raw files (snapshots
// written before the manifest existed, migrated layouts), and lines
// without a length come from before compression.
const sumsName = "sums"

// gzipHeader is the member header compressSnapshot writes: deflate, no
// flags, no modification time, unknown OS. A compressed file must start
// with exactly these bytes, so a flipped bit in a header field gzip
// itself does not check is still found.
var gzipHeader = []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}

// maxDeflateRatio bounds how many bytes one byte of deflate stream can
// decode to (258-byte matches at one bit each, rounded up); a recorded
// length beyond it cannot be the file's content.
const maxDeflateRatio = 1032

// sumEntry is one manifest line: the decoded content's CRC-32C and
// length (-1 on a line written before the length was recorded).
type sumEntry struct {
	crc  uint32
	size int64
}

var (
	gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}
	gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}
)

// compressSnapshot encodes one content file at gzip's default level,
// chosen by measurement over BestSpeed: a smaller output that also
// inflates faster at reopen.
func compressSnapshot(raw []byte) []byte {
	zw := gzipWriters.Get().(*gzip.Writer)
	defer gzipWriters.Put(zw)
	var buf bytes.Buffer
	zw.Reset(&buf)
	_, _ = zw.Write(raw) // a bytes.Buffer cannot fail
	_ = zw.Close()
	return buf.Bytes()
}

// isCompressed reports whether a content file is a gzip member.
func isCompressed(data []byte) bool {
	return len(data) >= 2 && data[0] == gzipHeader[0] && data[1] == gzipHeader[1]
}

// inflate decodes a compressed content file that must hold exactly size
// bytes: it never decodes past size, and it refuses a header other than
// the one compaction writes, a failed gzip trailer check and any bytes
// after the member.
func inflate(data []byte, size int64) ([]byte, error) {
	if !bytes.HasPrefix(data, gzipHeader) {
		return nil, errors.New("not the gzip header compaction writes")
	}
	if size > maxDeflateRatio*int64(len(data)) {
		return nil, fmt.Errorf("recorded length %d is more than %d compressed bytes can hold", size, len(data))
	}
	br := bytes.NewReader(data)
	zr := gzipReaders.Get().(*gzip.Reader)
	defer gzipReaders.Put(zr)
	if err := zr.Reset(br); err != nil {
		return nil, err
	}
	zr.Multistream(false)
	out := make([]byte, size)
	if _, err := io.ReadFull(zr, out); err != nil {
		return nil, fmt.Errorf("reading the %d bytes recorded: %w", size, err)
	}
	var one [1]byte
	switch n, err := zr.Read(one[:]); {
	case n > 0:
		return nil, fmt.Errorf("decodes to more than the %d bytes recorded", size)
	case err != io.EOF:
		return nil, err
	case br.Len() > 0:
		return nil, fmt.Errorf("%d bytes follow the compressed stream", br.Len())
	}
	return out, nil
}

// decodeContent returns the stored part a content file holds, verified
// against the manifest: sums is nil when the snapshot has none.
func decodeContent(sub, name string, data []byte, sums map[string]sumEntry) ([]byte, error) {
	path := filepath.Join(sub, name)
	e, listed := sums[name]
	if sums != nil && !listed {
		return nil, corruptf(filepath.Join(sub, sumsName), -1, nil, "manifest has no entry for %s", name)
	}
	content := data
	switch {
	case isCompressed(data):
		if !listed || e.size < 0 {
			return nil, corruptf(path, -1, nil, "compressed, but the checksum manifest records no length for it")
		}
		var err error
		if content, err = inflate(data, e.size); err != nil {
			return nil, corruptf(path, -1, err, "undecodable compressed content")
		}
	case listed && e.size >= 0 && int64(len(data)) != e.size:
		return nil, corruptf(path, -1, nil, "length %d, manifest records %d", len(data), e.size)
	}
	if listed {
		if got := scrub.Checksum(content); got != e.crc {
			return nil, corruptf(path, -1, nil, "checksum mismatch (manifest %08x, computed %08x)", e.crc, got)
		}
	}
	return content, nil
}

// snapshotSums renders the manifest for base and deltas, the first
// len(deltas)+1 versions of a chain.
func snapshotSums(base []byte, deltas [][]byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "v1.xml %08x %d\n", scrub.Checksum(base), len(base))
	for i, d := range deltas {
		fmt.Fprintf(&b, "%s %08x %d\n", deltaFile(i+1), scrub.Checksum(d), len(d))
	}
	return b.Bytes()
}

// parseSums decodes a checksum manifest into file → entry.
func parseSums(raw []byte) (map[string]sumEntry, error) {
	out := make(map[string]sumEntry)
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) > 3 || len(fields) < 2 {
			return nil, fmt.Errorf("bad sums line %q", line)
		}
		crc, err := strconv.ParseUint(fields[1], 16, 32)
		if err != nil {
			return nil, fmt.Errorf("bad sums line %q: %w", line, err)
		}
		e := sumEntry{crc: uint32(crc), size: -1}
		if len(fields) == 3 {
			if e.size, err = strconv.ParseInt(fields[2], 10, 64); err != nil || e.size < 0 {
				return nil, fmt.Errorf("bad sums line %q: bad length", line)
			}
		}
		out[fields[0]] = e
	}
	return out, nil
}

// readSums loads sub's checksum manifest; a snapshot without one yields
// nil and no error.
func readSums(fsys faultfs.FS, sub string) (map[string]sumEntry, error) {
	path := filepath.Join(sub, sumsName)
	raw, err := fsys.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, corruptf(path, -1, err, "unreadable checksum manifest")
	}
	sums, err := parseSums(raw)
	if err != nil {
		return nil, corruptf(path, -1, err, "bad checksum manifest")
	}
	return sums, nil
}
