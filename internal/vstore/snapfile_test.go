package vstore

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"xydiff/internal/diff"
	"xydiff/internal/faultfs"
	"xydiff/internal/scrub"
	"xydiff/internal/store"
)

// contentFiles lists every snapshot content file under a store
// directory, quarantined snapshots left out, sorted.
func contentFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	for _, pattern := range []string{"v1.xml", "delta-*.xml"} {
		m, err := filepath.Glob(filepath.Join(dir, "shard-*", docsDirName, "*", pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range m {
			if !strings.Contains(path, scrub.QuarantineSuffix) {
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}

// checkSnapshotBytes fails unless the storage stats count exactly the
// bytes of the content files on disk.
func checkSnapshotBytes(t *testing.T, s *Store, dir string) {
	t.Helper()
	var stored int64
	for _, path := range contentFiles(t, dir) {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		stored += fi.Size()
	}
	if got := s.StorageStats().SnapshotStoredBytes; got != stored {
		t.Fatalf("stats count %d snapshot bytes, the content files on disk %d", got, stored)
	}
}

// diskFormat is the format marker of dir's manifest.
func diskFormat(t *testing.T, dir string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m.Format
}

// servedVersions is every version of ids as Version serializes it.
func servedVersions(t *testing.T, s *Store, ids ...string) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, id := range ids {
		for v := 1; v <= s.Versions(id); v++ {
			doc, err := s.Version(id, v)
			if err != nil {
				t.Fatalf("%s v%d: %v", id, v, err)
			}
			out[id] = append(out[id], doc.String())
		}
	}
	return out
}

// TestCheckpointCompressesSnapshots: every content file a checkpoint
// writes is one gzip member with the fixed header, its manifest line
// records the decoded length, the storage stats count the files'
// bytes on disk and the parts they decode to, and after a reopen every
// version reads back byte-identically and a scrub pass is clean.
func TestCheckpointCompressesSnapshots(t *testing.T) {
	ids := []string{"a", "b"}
	s := chainStore(t, Config{Shards: 2}, catalogChain(t, 7000, 6), ids...)
	dir := s.dir
	want := servedVersions(t, s, ids...)
	var raw int64
	for _, id := range ids {
		st := s.shardFor(id).lookup(id)
		raw += int64(len(st.base))
		for _, d := range st.deltas {
			raw += int64(len(d))
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	files := contentFiles(t, dir)
	if len(files) != 12 {
		t.Fatalf("%d content files, want 12", len(files))
	}
	var stored int64
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, gzipHeader) {
			t.Fatalf("%s is not a gzip member with the fixed header: % x", path, data[:min(len(data), 10)])
		}
		stored += int64(len(data))
		sums, err := os.ReadFile(filepath.Join(filepath.Dir(path), sumsName))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(sums)), "\n") {
			if len(strings.Fields(line)) != 3 {
				t.Fatalf("sums line %q has no length", line)
			}
		}
	}
	ss := s.StorageStats()
	if ss.SnapshotStoredBytes != stored || ss.SnapshotRawBytes != raw {
		t.Fatalf("stats say %d stored / %d raw; the files hold %d and decode to %d",
			ss.SnapshotStoredBytes, ss.SnapshotRawBytes, stored, raw)
	}
	if stored*3 > raw {
		t.Fatalf("%d raw bytes compressed only to %d", raw, stored)
	}
	if got := diskFormat(t, dir); got != manifestFormat || ss.Format != manifestFormat {
		t.Fatalf("manifest says %q, stats %q; want %q", got, ss.Format, manifestFormat)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, diff.Options{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := servedVersions(t, s2, ids...); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("versions differ after checkpoint and reopen")
	}
	if ss2 := s2.StorageStats(); ss2.SnapshotStoredBytes != stored || ss2.SnapshotRawBytes != raw {
		t.Fatalf("after reopen stats say %d stored / %d raw, want %d / %d",
			ss2.SnapshotStoredBytes, ss2.SnapshotRawBytes, stored, raw)
	}
	if rep, err := s2.ScrubPass(context.Background()); err != nil || rep.Found != 0 || rep.SnapshotsScanned != 2 {
		t.Fatalf("scrub after reopen: %+v, %v", rep, err)
	}
}

// TestInflateRefusesDamage: damage anywhere in a compressed file —
// header fields gzip does not check included — and a recorded length
// that disagrees with the content are refused.
func TestInflateRefusesDamage(t *testing.T) {
	raw := []byte(strings.Repeat("<item><name>x</name><price>$1</price></item>", 50))
	good := compressSnapshot(raw)
	n := int64(len(raw))
	if got, err := inflate(good, n); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("inflate(good) = %d bytes, %v", len(got), err)
	}
	edit := func(mut func(b []byte) []byte) []byte { return mut(bytes.Clone(good)) }
	flip := func(at int) []byte {
		return edit(func(b []byte) []byte {
			b[at] ^= 0x04
			return b
		})
	}
	for _, tc := range []struct {
		name string
		data []byte
		size int64
	}{
		{"torn tail", good[:len(good)-5], n},
		{"torn mid-stream", good[:len(good)/2], n},
		{"trailing byte", append(bytes.Clone(good), 0), n},
		{"second member", append(bytes.Clone(good), good...), n},
		{"modification time set", flip(4), n},
		{"text flag set", flip(3), n},
		{"os byte changed", flip(9), n},
		{"deflate stream bit flip", flip(len(good) / 2), n},
		{"trailer crc bit flip", flip(len(good) - 6), n},
		{"trailer length bit flip", flip(len(good) - 2), n},
		{"zeroed range", edit(func(b []byte) []byte {
			copy(b[12:20], make([]byte, 8))
			return b
		}), n},
		{"recorded length short", good, n - 1},
		{"recorded length long", good, n + 1},
		{"recorded length impossible", good, maxDeflateRatio*int64(len(good)) + 1},
	} {
		if got, err := inflate(tc.data, tc.size); err == nil {
			t.Errorf("%s: inflate returned %d bytes and no error", tc.name, len(got))
		}
	}
}

// TestInflateNeverDecodesPastRecordedLength: a small file inflating to
// megabytes, whose manifest line claims a short length, is refused
// having allocated about that length, not the bomb's size.
func TestInflateNeverDecodesPastRecordedLength(t *testing.T) {
	const bombSize = 8 << 20
	bomb := compressSnapshot(make([]byte, bombSize))
	inflate(compressSnapshot([]byte("<warm/>")), 7) // the reader pool holds one decoder
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := inflate(bomb, 1000)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("an 8 MiB stream recorded as 1000 bytes inflated")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > bombSize/16 {
		t.Fatalf("refusing the bomb allocated %d bytes", grew)
	}
}

// TestCompressedSnapshotNeedsSums: a compressed file without a manifest
// entry is corrupt — strictly, Open refuses naming the file; degraded,
// the snapshot is quarantined and the document degraded.
func TestCompressedSnapshotNeedsSums(t *testing.T) {
	s, dir := openTest(t, Config{Shards: 1})
	seedDoc(t, s, "doc", 3)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, shardDirName(0), docsDirName, escapeID("doc"))
	if err := os.Remove(filepath.Join(sub, sumsName)); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, diff.Options{}, Config{})
	var ce *store.CorruptError
	if !errors.As(err, &ce) || ce.File != filepath.Join(sub, "v1.xml") {
		t.Fatalf("Open without sums = %v, want ErrCorrupt naming v1.xml", err)
	}
	s2, err := Open(dir, diff.Options{}, Config{OpenDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Version("doc", 1); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Version after quarantine = %v, want ErrDegraded", err)
	}
	if _, err := os.Stat(sub + scrub.QuarantineSuffix); err != nil {
		t.Fatalf("snapshot not quarantined: %v", err)
	}
}

// TestCheckpointDuringPuts: compression runs on a cut taken under the
// read lock while Puts keep landing; every acknowledged version
// survives the checkpoints and a reopen byte-identically.
func TestCheckpointDuringPuts(t *testing.T) {
	s, dir := openTest(t, Config{Shards: 2, SegmentBytes: 4096, CompactSegments: -1})
	chain := catalogChain(t, 3000, 8)
	ids := []string{"w0", "w1", "w2", "w3"}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for _, doc := range chain {
				if _, _, err := s.Put(id, doc); err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true // one more pass folds the last Puts
		default:
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, diff.Options{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec := s2.RecoveryStats(); rec.JournalRecords != 0 {
		t.Fatalf("%d versions replayed from segments after the last checkpoint", rec.JournalRecords)
	}
	for _, id := range ids {
		for v, doc := range chain {
			got, err := s2.Version(id, v+1)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != doc.String() {
				t.Fatalf("%s v%d differs after reopen", id, v+1)
			}
		}
	}
}

// v1Digests reads testdata/v1/digests.txt: document → version → SHA-256.
func v1Digests(t *testing.T) map[string][]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "v1", "digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string][]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		id := unescapeID(fields[0])
		if v, err := strconv.Atoi(fields[1]); err != nil || v != len(out[id])+1 {
			t.Fatalf("bad digests line %q", sc.Text())
		}
		out[id] = append(out[id], fields[2])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkServes fails unless s holds exactly the documents of want and
// serves each version with the pinned digest.
func checkServes(t *testing.T, s *Store, want map[string][]string) {
	t.Helper()
	if len(s.IDs()) != len(want) {
		t.Fatalf("store holds %v, want %d documents", s.IDs(), len(want))
	}
	for id, digests := range want {
		if n := s.Versions(id); n != len(digests) {
			t.Fatalf("%s has %d versions, want %d", id, n, len(digests))
		}
		for v, d := range digests {
			doc, err := s.Version(id, v+1)
			if err != nil {
				t.Fatalf("%s v%d: %v", id, v+1, err)
			}
			if got := sha([]byte(doc.String())); got != d {
				t.Fatalf("%s v%d serves %s, pinned %s", id, v+1, got, d)
			}
		}
	}
}

// checkScrubClean runs one scrub pass and fails on any finding.
func checkScrubClean(t *testing.T, s *Store) {
	t.Helper()
	rep, err := s.ScrubPass(context.Background())
	if err != nil || rep.Found != 0 {
		t.Fatalf("scrub: %+v, %v", rep, err)
	}
}

// TestOpenVstoreV1Directory: a directory the engine wrote before
// snapshot files were compressed (testdata/v1: raw snapshots, a
// vstore-v1 manifest and a segment tail per shard) opens, serves every
// version byte-identically and scrubs clean. Its manifest says
// vstore-v2 once the first compressed file is written, and after one
// more Put and checkpoint it holds raw and compressed files side by
// side and still reopens.
func TestOpenVstoreV1Directory(t *testing.T) {
	want := v1Digests(t)
	dir := copyDir(t, filepath.Join("testdata", "v1", "store"))
	cfg := Config{CompactSegments: -1}
	s, err := Open(dir, diff.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkServes(t, s, want)
	checkScrubClean(t, s)
	if got := diskFormat(t, dir); got != manifestFormatRaw || s.StorageStats().Format != manifestFormatRaw {
		t.Fatalf("before any compressed write the manifest says %q", got)
	}

	if err := s.Checkpoint(); err != nil { // folds the segment tails: compressed deltas
		t.Fatal(err)
	}
	if got := diskFormat(t, dir); got != manifestFormat {
		t.Fatalf("after the first compressed write the manifest says %q", got)
	}
	v, _, err := s.Put("catalog", parse(t, `<Catalog><Product id="3"><Name>qq</Name><Price>$11</Price></Product></Catalog>`))
	if err != nil {
		t.Fatal(err)
	}
	latest, err := s.Version("catalog", v)
	if err != nil {
		t.Fatal(err)
	}
	want["catalog"] = append(want["catalog"], sha([]byte(latest.String())))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkScrubClean(t, s)
	var rawFiles, compressed int
	for _, path := range contentFiles(t, dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if isCompressed(data) {
			compressed++
		} else {
			rawFiles++
		}
	}
	if rawFiles == 0 || compressed == 0 {
		t.Fatalf("%d raw and %d compressed content files, want both kinds", rawFiles, compressed)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, diff.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkServes(t, s2, want)
	checkScrubClean(t, s2)
}

// FuzzSnapshotLoad opens a directory whose only snapshot content file
// holds arbitrary bytes, with or without a manifest line recording a
// fuzzed length (and the CRC of what the bytes hold). Open must succeed
// or refuse with an ErrCorrupt naming that file, never panic, and a
// compressed file that loads must decode to exactly the recorded
// length.
func FuzzSnapshotLoad(f *testing.F) {
	raw := []byte(`<doc><rev>1</rev><body>payload 1</body></doc>`)
	z := compressSnapshot(raw)
	f.Add(z, true, uint32(len(raw)))
	f.Add(z, false, uint32(len(raw)))
	f.Add(z, true, uint32(len(raw)+1))
	f.Add(z[:len(z)-3], true, uint32(len(raw)))
	f.Add(append(bytes.Clone(z), z...), true, uint32(len(raw)))
	f.Add(raw, true, uint32(len(raw)))
	f.Add(raw, false, uint32(0))
	f.Add(compressSnapshot(nil), false, uint32(0))
	f.Add(compressSnapshot(make([]byte, 1<<16)), true, uint32(64))
	f.Fuzz(func(t *testing.T, data []byte, withSums bool, size uint32) {
		dir := t.TempDir()
		sub := filepath.Join(dir, shardDirName(0), docsDirName, "doc")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeManifest(faultfs.OS{}, dir, &manifest{Format: manifestFormat, Shards: 1}); err != nil {
			t.Fatal(err)
		}
		// What the file holds, read by the standard library with no
		// header check and a generous bound.
		holds := data
		if isCompressed(data) {
			if zr, err := gzip.NewReader(bytes.NewReader(data)); err == nil {
				zr.Multistream(false)
				if b, err := io.ReadAll(io.LimitReader(zr, 1<<20)); err == nil {
					holds = b
				}
			}
		}
		files := map[string]string{"versions": "1", "v1.xml": string(data)}
		if withSums {
			files[sumsName] = fmt.Sprintf("v1.xml %08x %d\n", scrub.Checksum(holds), size)
		}
		for name, content := range files {
			if err := os.WriteFile(filepath.Join(sub, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir, diff.Options{}, Config{Shards: 1, CompactSegments: -1})
		if err != nil {
			var ce *store.CorruptError
			if !errors.As(err, &ce) || ce.File != filepath.Join(sub, "v1.xml") {
				t.Fatalf("Open = %v, want ErrCorrupt naming v1.xml", err)
			}
			return
		}
		defer s.Close()
		base := s.shards[0].docs["doc"].base
		switch {
		case !isCompressed(data):
			if !bytes.Equal(base, data) {
				t.Fatal("a raw file loaded as different bytes")
			}
		case !withSums:
			t.Fatal("a compressed file with no recorded length loaded")
		case int64(len(base)) != int64(size) || !bytes.Equal(base, holds):
			t.Fatalf("loaded %d bytes, recorded length %d", len(base), size)
		}
	})
}
