package vstore

import (
	"bytes"
	"compress/gzip"
	"compress/zlib"
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
// part of a document's chain in one of three encodings:
//
//   - raw XML, as snapshots were written before compression (vstore-v1)
//     and as Migrate's legacy layout holds them;
//   - one gzip member (RFC 1952), as compaction wrote every file under
//     vstore-v2;
//   - one zlib stream (RFC 1950) with a preset dictionary, as compaction
//     writes every file now. The dictionary is the last dictSize bytes
//     of the chain before the part: the decoded base and the deltas
//     before it, concatenated, so empty for v1.xml. A document's small
//     deltas repeat the vocabulary of its base and of one another,
//     which a part compressed alone cannot refer back to.
//
// The loader tells them apart by the exact header compaction writes
// or wrote (1f 8b for gzip, 78 bb for zlib with a dictionary at the
// default level); no XML document starts with either, so the three
// mix freely in one directory. A dictionary part decodes only after
// every part before it, so loadSnapshot and the scrubber walk a chain
// in order; that costs nothing, since a snapshot with any bad part is
// refused whole. Only the files are compressed: the segment journal
// and the resident chain stay raw, so the request path never inflates.
//
// The checksum manifest (sums) holds, per content file, the CRC-32C of
// the decoded XML and its length. The CRC is the one snapshots carried
// before compression, so an existing manifest stays valid for its raw
// files; the length bounds decoding, so a damaged or hostile file can
// never make the loader allocate more than the part's recorded size. A
// compressed file without a recorded length is corrupt. zlib's DICTID
// and Adler-32 are checked on top, so a part met with a chain other
// than the one it was written against is refused, never misread.

// sumsName is the snapshot checksum manifest: one "<file> <crc32c>
// <length>" line per snapshot content file. Recovery and the scrubber
// verify against it; its absence is tolerated for raw files (snapshots
// written before the manifest existed, migrated layouts), and lines
// without a length come from before compression.
const sumsName = "sums"

// gzipHeader is the member header vstore-v2 compaction wrote: deflate,
// no flags, no modification time, unknown OS. A gzip file must start with
// exactly these bytes, so a flipped bit in a header field gzip itself
// does not check is still found.
var gzipHeader = []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}

// dictHeader is the zlib header compressPart writes: deflate with a
// 32 KiB window, a preset dictionary (FDICT) and the default level. Its
// four-byte DICTID, the dictionary's Adler-32, follows.
var dictHeader = []byte{0x78, 0xbb}

// dictSize is how much of the chain before a part its preset
// dictionary holds: deflate's whole window.
const dictSize = 32 << 10

// maxDeflateRatio bounds how many bytes one byte of deflate stream can
// decode to (258-byte matches at one bit each, rounded up); a recorded
// length beyond it cannot be the file's content.
const maxDeflateRatio = 1032

// encoding is how a content file stores its part.
type encoding int

const (
	encRaw  encoding = iota // raw XML
	encGzip                 // one gzip member
	encDict                 // one zlib stream with the chain's preset dictionary
	numEncodings
)

// encodingNames name the encodings in StorageStats and xystore inspect.
var encodingNames = [numEncodings]string{"raw", "gzip", "dictionary"}

// encodingOf tells a content file's encoding by its first two bytes.
func encodingOf(data []byte) encoding {
	switch {
	case len(data) >= 2 && data[0] == gzipHeader[0] && data[1] == gzipHeader[1]:
		return encGzip
	case bytes.HasPrefix(data, dictHeader):
		return encDict
	}
	return encRaw
}

// snapBytes counts a snapshot's content files: per encoding, how many
// there are and their bytes on disk, and the bytes they all decode to.
type snapBytes struct {
	files, stored [numEncodings]int64
	raw           int64
}

func (b *snapBytes) add(enc encoding, stored, raw int) {
	b.files[enc]++
	b.stored[enc] += int64(stored)
	b.raw += int64(raw)
}

// sumEntry is one manifest line: the decoded content's CRC-32C and
// length (-1 on a line written before the length was recorded).
type sumEntry struct {
	crc  uint32
	size int64
}

var (
	gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}
	dictReaders = sync.Pool{New: func() any { return new(dictReader) }}
)

// compressPart encodes one content file as a zlib stream at the default
// level whose preset dictionary is dict, the chain's tail before the
// part (empty for the base). A flate writer keeps the dictionary it was
// made with across Reset, so each part gets its own writer; compaction
// runs off the request path.
func compressPart(raw, dict []byte) []byte {
	if dict == nil {
		dict = []byte{} // nil would drop FDICT, and with it the header the loader requires
	}
	var buf bytes.Buffer
	zw, _ := zlib.NewWriterLevelDict(&buf, zlib.DefaultCompression, dict) // only a bad level fails
	_, _ = zw.Write(raw)                                                  // a bytes.Buffer cannot fail
	_ = zw.Close()
	return buf.Bytes()
}

// isCompressed reports whether a content file is a gzip member or a
// dictionary stream.
func isCompressed(data []byte) bool { return encodingOf(data) != encRaw }

// dictReader is a pooled zlib decoder; r is nil until its first use,
// since zlib has no way to make one without a stream to read.
type dictReader struct{ r io.ReadCloser }

func (d *dictReader) reset(src io.Reader, dict []byte) error {
	if d.r == nil {
		r, err := zlib.NewReaderDict(src, dict)
		if err != nil {
			return err
		}
		d.r = r
		return nil
	}
	return d.r.(zlib.Resetter).Reset(src, dict)
}

// inflate decodes a compressed content file that must hold exactly size
// bytes: a gzip member, or a zlib stream whose preset dictionary must
// be dict. It never decodes past size, and it refuses a header other
// than the ones compaction writes or wrote, a failed trailer check
// (gzip's CRC-32 and length, zlib's Adler-32), a dictionary other than
// dict, and any bytes after the stream.
func inflate(data []byte, size int64, dict []byte) ([]byte, error) {
	gz := bytes.HasPrefix(data, gzipHeader)
	if !gz && !bytes.HasPrefix(data, dictHeader) {
		return nil, errors.New("not a header compaction writes")
	}
	if size > maxDeflateRatio*int64(len(data)) {
		return nil, fmt.Errorf("recorded length %d is more than %d compressed bytes can hold", size, len(data))
	}
	br := bytes.NewReader(data)
	var zr io.Reader
	if gz {
		gr := gzipReaders.Get().(*gzip.Reader)
		defer gzipReaders.Put(gr)
		if err := gr.Reset(br); err != nil {
			return nil, err
		}
		gr.Multistream(false)
		zr = gr
	} else {
		dr := dictReaders.Get().(*dictReader)
		defer dictReaders.Put(dr)
		if err := dr.reset(br, dict); err != nil {
			if errors.Is(err, zlib.ErrDictionary) {
				return nil, fmt.Errorf("written against another chain: its dictionary is not the %d bytes before it", len(dict))
			}
			return nil, err
		}
		zr = dr.r
	}
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
// against the manifest: sums is nil when the snapshot has none, and
// dict is the chain's tail before the part (chainTail), which a
// dictionary part must have been written against.
func decodeContent(sub, name string, data []byte, sums map[string]sumEntry, dict []byte) ([]byte, error) {
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
		if content, err = inflate(data, e.size, dict); err != nil {
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

// chainTail keeps in b the last dictSize bytes of the chain parts
// pushed into it, in order: the preset dictionary of the next delta
// part. The decoders copy it, so it may move on once a part is coded.
type chainTail struct{ b []byte }

// push appends one part to the tail.
func (t *chainTail) push(part []byte) {
	if len(part) >= dictSize {
		t.b = append(t.b[:0], part[len(part)-dictSize:]...)
		return
	}
	if keep := dictSize - len(part); len(t.b) > keep {
		t.b = t.b[:copy(t.b, t.b[len(t.b)-keep:])]
	}
	t.b = append(t.b, part...)
}

// pushChain pushes the XML of base and deltas, rendering only the parts
// that end inside the tail's window.
func (t *chainTail) pushChain(base *part, deltas []*part) error {
	first, n := len(deltas), 0
	for ; first > 0 && n < dictSize; first-- {
		n += deltas[first-1].xmlLen()
	}
	if first == 0 && n < dictSize {
		xml, err := base.xml(baseXML)
		if err != nil {
			return fmt.Errorf("version 1: %w", err)
		}
		t.push(xml)
	}
	for i, d := range deltas[first:] {
		xml, err := d.xml(deltaXML)
		if err != nil {
			return fmt.Errorf("delta %d: %w", first+i+1, err)
		}
		t.push(xml)
	}
	return nil
}

// snapshotSums renders the manifest for base and deltas, the first
// len(deltas)+1 versions of a chain, from their parts' XML sums.
func snapshotSums(base *part, deltas []*part) []byte {
	var b bytes.Buffer
	sum, size := base.sum()
	fmt.Fprintf(&b, "v1.xml %08x %d\n", sum, size)
	for i, d := range deltas {
		sum, size := d.sum()
		fmt.Fprintf(&b, "%s %08x %d\n", deltaFile(i+1), sum, size)
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
