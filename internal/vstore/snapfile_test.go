package vstore

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"compress/zlib"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"xydiff/internal/alloctest"
	"xydiff/internal/diff"
	"xydiff/internal/faultfs"
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
			if !strings.Contains(path, quarantineSuffix) {
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
// writes is one zlib stream with the fixed header whose dictionary is
// the chain before it — empty for v1.xml, whose DICTID is adler32("") —
// its manifest line records the decoded length, the storage stats count
// the files per encoding, their bytes on disk and the parts they decode
// to, and after a reopen every version reads back byte-identically and
// a scrub pass is clean.
func TestCheckpointCompressesSnapshots(t *testing.T) {
	ids := []string{"a", "b"}
	s := chainStore(t, Config{Shards: 2}, catalogChain(t, 7000, 6), ids...)
	dir := s.dir
	want := servedVersions(t, s, ids...)
	var raw int64
	for _, id := range ids {
		st := s.shardFor(id).lookup(id)
		for _, p := range append([]*part{st.base}, st.deltas...) {
			_, size := p.sum()
			raw += int64(size)
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
	var byEnc [numEncodings]SnapshotEncoding
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		header := dictHeader
		if filepath.Base(path) == "v1.xml" {
			header = append(bytes.Clone(dictHeader), 0, 0, 0, 1)
		}
		if !bytes.HasPrefix(data, header) {
			t.Fatalf("%s does not start with the fixed header % x: % x", path, header, data[:min(len(data), 10)])
		}
		byEnc[encDict].Files++
		byEnc[encDict].Bytes += int64(len(data))
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
	for enc, e := range ss.SnapshotEncodings {
		if want := byEnc[enc]; e.Name != encodingNames[enc] || e.Files != want.Files || e.Bytes != want.Bytes {
			t.Fatalf("stats count %+v, the files on disk %d files of %d bytes", e, want.Files, want.Bytes)
		}
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
	if ss2 := s2.StorageStats(); ss2.SnapshotStoredBytes != stored || ss2.SnapshotRawBytes != raw ||
		fmt.Sprint(ss2.SnapshotEncodings) != fmt.Sprint(ss.SnapshotEncodings) {
		t.Fatalf("after reopen stats say %d stored / %d raw %v, want %d / %d %v",
			ss2.SnapshotStoredBytes, ss2.SnapshotRawBytes, ss2.SnapshotEncodings, stored, raw, ss.SnapshotEncodings)
	}
	if rep, err := s2.ScrubPass(context.Background()); err != nil || rep.Found != 0 || rep.SnapshotsScanned != 2 {
		t.Fatalf("scrub after reopen: %+v, %v", rep, err)
	}
}

// TestInflateRefusesDamage: damage anywhere in a compressed file of
// either kind — header fields gzip does not check included — a recorded
// length that disagrees with the content, and a dictionary part met
// with any dictionary but the one it was written against are refused.
func TestInflateRefusesDamage(t *testing.T) {
	raw := []byte(strings.Repeat("<item><name>x</name><price>$1</price></item>", 50))
	dict := []byte(strings.Repeat("<catalog><item><name>y</name></item>", 40))
	n := int64(len(raw))
	type damage struct {
		name string
		data []byte
		size int64
		dict []byte
	}
	for _, kind := range []struct {
		name    string
		good    []byte
		special func(good []byte, flip func(int) []byte) []damage
	}{
		{"gzip", gzipMember(raw), func(_ []byte, flip func(int) []byte) []damage {
			return []damage{
				{"modification time set", flip(4), n, dict},
				{"text flag set", flip(3), n, dict},
				{"os byte changed", flip(9), n, dict},
			}
		}},
		{"dictionary", compressPart(raw, dict), func(good []byte, flip func(int) []byte) []damage {
			return []damage{
				{"another dictionary", good, n, []byte("<other/>")},
				{"dictionary one byte short", good, n, dict[1:]},
				{"no dictionary", good, n, nil},
				{"level bits changed", flip(1), n, dict},
				// FLEVEL 3 with FDICT and a check that holds: zlib accepts it.
				{"another level's valid header", append([]byte{0x78, 0xf9}, good[2:]...), n, dict},
				{"dictid bit flip", flip(3), n, dict},
			}
		}},
	} {
		good := kind.good
		if got, err := inflate(good, n, dict); err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("%s: inflate(good) = %d bytes, %v", kind.name, len(got), err)
		}
		edit := func(mut func(b []byte) []byte) []byte { return mut(bytes.Clone(good)) }
		flip := func(at int) []byte {
			return edit(func(b []byte) []byte {
				b[at] ^= 0x04
				return b
			})
		}
		cases := []damage{
			{"torn tail", good[:len(good)-5], n, dict},
			{"torn mid-stream", good[:len(good)/2], n, dict},
			{"trailing byte", append(bytes.Clone(good), 0), n, dict},
			{"second stream", append(bytes.Clone(good), good...), n, dict},
			{"deflate stream bit flip", flip(len(good) / 2), n, dict},
			{"trailer bit flip", flip(len(good) - 2), n, dict},
			{"bit flip six bytes from the end", flip(len(good) - 6), n, dict},
			{"zeroed range", edit(func(b []byte) []byte {
				copy(b[12:20], make([]byte, 8))
				return b
			}), n, dict},
			{"recorded length short", good, n - 1, dict},
			{"recorded length long", good, n + 1, dict},
			{"recorded length impossible", good, maxDeflateRatio*int64(len(good)) + 1, dict},
		}
		for _, tc := range append(cases, kind.special(good, flip)...) {
			if got, err := inflate(tc.data, tc.size, tc.dict); err == nil {
				t.Errorf("%s, %s: inflate returned %d bytes and no error", kind.name, tc.name, len(got))
			}
		}
	}
}

// TestInflateNeverDecodesPastRecordedLength: a small file of either
// kind inflating to megabytes, whose manifest line claims a short
// length, is refused having allocated about that length, not the
// bomb's size.
func TestInflateNeverDecodesPastRecordedLength(t *testing.T) {
	const bombSize = 8 << 20
	dict := []byte("<warm/>")
	var bombs [][]byte
	for _, compress := range []func([]byte) []byte{
		gzipMember,
		func(raw []byte) []byte { return compressPart(raw, dict) },
	} {
		bomb := compress(make([]byte, bombSize))
		if _, err := inflate(bomb, 1000, dict); err == nil {
			t.Fatal("an 8 MiB stream recorded as 1000 bytes inflated")
		}
		bombs = append(bombs, bomb)
	}
	for _, bomb := range bombs {
		// The warm-up call leaves the reader pool holding one decoder.
		if _, grew := alloctest.Cost(t, 1, func() { inflate(bomb, 1000, dict) }); grew > bombSize/16 {
			t.Fatalf("refusing the bomb (% x) allocated %.0f bytes", bomb[:2], grew)
		}
	}
}

// TestChainTail: the tail after pushing parts one by one, or a whole
// chain at once, is the last dictSize bytes of their concatenation.
func TestChainTail(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		base := make([]byte, rng.Intn(3*dictSize))
		rng.Read(base)
		var deltas [][]byte
		var parts []*part
		all := bytes.Clone(base)
		for i := rng.Intn(6); i > 0; i-- {
			d := make([]byte, rng.Intn([]int{10, 3000, 2 * dictSize}[rng.Intn(3)]))
			rng.Read(d)
			deltas = append(deltas, d)
			parts = append(parts, xmlPart(d))
			all = append(all, d...)
		}
		want := all[max(len(all)-dictSize, 0):]
		var one, whole chainTail
		one.push(base)
		for _, d := range deltas {
			one.push(d)
		}
		if err := whole.pushChain(xmlPart(base), parts); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(one.b, want) || !bytes.Equal(whole.b, want) {
			t.Fatalf("trial %d: tails of %d and %d bytes, want the last %d of %d", trial, len(one.b), len(whole.b), len(want), len(all))
		}
	}
}

// TestDictionaryPartNeedsItsChain: a delta file moved, with its
// manifest line, into another document's snapshot is refused as corrupt
// naming it — its dictionary id is another chain's — strictly at open,
// and quarantined with the document degraded when opened degraded.
func TestDictionaryPartNeedsItsChain(t *testing.T) {
	s, dir := openTest(t, Config{Shards: 1})
	seedDoc(t, s, "a", 3)
	if _, _, err := s.Put("b", parse(t, `<other><x>1</x></other>`)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put("b", parse(t, `<other><x>2</x></other>`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	docs := filepath.Join(dir, shardDirName(0), docsDirName)
	from, to := filepath.Join(docs, "b"), filepath.Join(docs, "a")
	moved, err := os.ReadFile(filepath.Join(from, deltaFile(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(to, deltaFile(1)), moved, 0o644); err != nil {
		t.Fatal(err)
	}
	fromSums, err := readSums(from, func(name string) ([]byte, error) { return os.ReadFile(filepath.Join(from, name)) })
	if err != nil {
		t.Fatal(err)
	}
	toSums, err := os.ReadFile(filepath.Join(to, sumsName))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(string(toSums)), "\n") {
		if strings.HasPrefix(line, deltaFile(1)+" ") {
			e := fromSums[deltaFile(1)]
			line = fmt.Sprintf("%s %08x %d", deltaFile(1), e.crc, e.size)
		}
		lines = append(lines, line)
	}
	if err := os.WriteFile(filepath.Join(to, sumsName), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, diff.Options{}, Config{})
	var ce *corruptError
	if !errors.As(err, &ce) || ce.file != filepath.Join(to, deltaFile(1)) || !strings.Contains(err.Error(), "another chain") {
		t.Fatalf("Open = %v, want a corruptError naming a's %s as written against another chain", err, deltaFile(1))
	}
	s2, err := Open(dir, diff.Options{}, Config{OpenDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Version("a", 1); !matches(err, &DegradedError{}) {
		t.Fatalf("Version after quarantine = %v, want a DegradedError", err)
	}
	if n := s2.Versions("b"); n != 2 {
		t.Fatalf("b has %d versions after a's snapshot was quarantined, want 2", n)
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
	var ce *corruptError
	if !errors.As(err, &ce) || ce.file != filepath.Join(sub, "v1.xml") {
		t.Fatalf("Open without sums = %v, want a corruptError naming v1.xml", err)
	}
	s2, err := Open(dir, diff.Options{}, Config{OpenDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Version("doc", 1); !matches(err, &DegradedError{}) {
		t.Fatalf("Version after quarantine = %v, want a DegradedError", err)
	}
	if _, err := os.Stat(sub + quarantineSuffix); err != nil {
		t.Fatalf("snapshot not quarantined: %v", err)
	}
}

// TestCheckpointDuringPuts: compression runs on a cut taken under the
// read lock while Puts keep landing; every acknowledged version
// survives the checkpoints and a reopen byte-identically.
func TestCheckpointDuringPuts(t *testing.T) {
	s, dir := openTest(t, Config{Shards: 2, segmentBytes: 4096, compactSegments: -1})
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

// fixtureDigests reads testdata/<fixture>/digests.txt: document →
// version → SHA-256 of the version as Version serializes it, and of the
// delta from it to the next as MarshalText renders it ("" where the
// fixture pins no delta).
func fixtureDigests(t *testing.T, fixture string) (versions, deltas map[string][]string) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", fixture, "digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	versions, deltas = make(map[string][]string), make(map[string][]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		id := unescapeID(fields[0])
		if v, err := strconv.Atoi(fields[1]); err != nil || v != len(versions[id])+1 || len(fields) > 4 {
			t.Fatalf("bad digests line %q", sc.Text())
		}
		versions[id] = append(versions[id], fields[2])
		if len(fields) == 4 {
			deltas[id] = append(deltas[id], fields[3])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return versions, deltas
}

// checkServes fails unless s holds exactly the documents of want and
// serves each version, and each delta in deltas, with the pinned
// digest.
func checkServes(t *testing.T, s *Store, want, deltas map[string][]string) {
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
	for id, digests := range deltas {
		for v, d := range digests {
			dl, err := s.Aggregate(id, v+1, v+2)
			if err != nil {
				t.Fatalf("%s delta %d: %v", id, v+1, err)
			}
			body, err := dl.MarshalText()
			if err != nil {
				t.Fatal(err)
			}
			if got := sha(body); got != d {
				t.Fatalf("%s delta %d serves %s, pinned %s", id, v+1, got, d)
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
// vstore-v3 once the first compressed file is written, and after one
// more Put and checkpoint it holds raw and compressed files side by
// side and still reopens.
func TestOpenVstoreV1Directory(t *testing.T) {
	want, _ := fixtureDigests(t, "v1")
	dir := copyDir(t, filepath.Join("testdata", "v1", "store"))
	cfg := Config{compactSegments: -1}
	s, err := Open(dir, diff.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkServes(t, s, want, nil)
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
	checkServes(t, s2, want, nil)
	checkScrubClean(t, s2)
}

// TestOpenVstoreV2Directory: a directory the engine wrote with gzip
// members only (testdata/v2: a vstore-v2 manifest, gzip snapshots and a
// segment tail per shard) opens, serves every version and delta
// byte-identically and scrubs clean. One checkpoint folds the tails
// into dictionary files beside the gzip ones and re-marks the manifest
// vstore-v3; the mixed directory still reconstructs, scrubs clean and
// reopens.
func TestOpenVstoreV2Directory(t *testing.T) {
	want, deltas := fixtureDigests(t, "v2")
	dir := copyDir(t, filepath.Join("testdata", "v2", "store"))
	cfg := Config{compactSegments: -1}
	s, err := Open(dir, diff.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkServes(t, s, want, deltas)
	checkScrubClean(t, s)
	if got := diskFormat(t, dir); got != manifestFormatGzip || s.StorageStats().Format != manifestFormatGzip {
		t.Fatalf("before any write the manifest says %q", got)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := diskFormat(t, dir); got != manifestFormat {
		t.Fatalf("after a checkpoint the manifest says %q", got)
	}
	checkServes(t, s, want, deltas)
	checkScrubClean(t, s)
	encs := s.StorageStats().SnapshotEncodings
	if encs[encRaw].Files != 0 || encs[encGzip].Files == 0 || encs[encDict].Files == 0 {
		t.Fatalf("snapshot files by encoding %v, want gzip and dictionary side by side", encs)
	}
	checkSnapshotBytes(t, s, dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, diff.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkServes(t, s2, want, deltas)
	checkScrubClean(t, s2)
	if got := s2.StorageStats().SnapshotEncodings; fmt.Sprint(got) != fmt.Sprint(encs) {
		t.Fatalf("after reopen snapshot files by encoding %v, before %v", got, encs)
	}
}

// gzipMember encodes raw as one gzip member with the header vstore-v2
// compaction wrote, as a fixture for the gzip reader.
func gzipMember(raw []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	_, _ = zw.Write(raw) // a bytes.Buffer cannot fail
	_ = zw.Close()
	return buf.Bytes()
}

// stdDecode is what a content file holds, read by the standard library
// with no check of gzip's header fields and a generous bound: a gzip
// member, a zlib stream with dict as its dictionary, or else the bytes
// themselves.
func stdDecode(data, dict []byte) []byte {
	var zr io.Reader
	switch encodingOf(data) {
	case encGzip:
		gr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return data
		}
		gr.Multistream(false)
		zr = gr
	case encDict:
		r, err := zlib.NewReaderDict(bytes.NewReader(data), dict)
		if err != nil {
			return data
		}
		zr = r
	default:
		return data
	}
	b, err := io.ReadAll(io.LimitReader(zr, 1<<20))
	if err != nil {
		return data
	}
	return b
}

// FuzzSnapshotLoad opens a directory whose snapshot holds arbitrary
// bytes in v1.xml and, when part is not empty, in delta-0001.xml, with
// or without a manifest recording fuzzed lengths (and the CRC of what
// each file holds, the delta read with the last 32 KiB of what v1.xml
// holds as its dictionary). Open must succeed or refuse with an
// a corruptError naming one of the two files, never panic; it names the
// delta only when v1.xml alone decodes. A compressed file that loads
// must decode to exactly its recorded length and to what it holds.
func FuzzSnapshotLoad(f *testing.F) {
	raw := []byte(`<doc><rev>1</rev><body>payload 1</body></doc>`)
	z, gz := compressPart(raw, nil), gzipMember(raw)
	none := []byte{}
	for _, base := range [][]byte{z, gz} {
		f.Add(base, true, uint32(len(raw)), none, uint32(0))
		f.Add(base, false, uint32(len(raw)), none, uint32(0))
		f.Add(base, true, uint32(len(raw)+1), none, uint32(0))
		f.Add(base[:len(base)-3], true, uint32(len(raw)), none, uint32(0))
		f.Add(append(bytes.Clone(base), base...), true, uint32(len(raw)), none, uint32(0))
	}
	f.Add(raw, true, uint32(len(raw)), none, uint32(0))
	f.Add(raw, false, uint32(0), none, uint32(0))
	f.Add(compressPart(nil, nil), false, uint32(0), none, uint32(0))
	f.Add(gzipMember(make([]byte, 1<<16)), true, uint32(64), none, uint32(0))
	f.Add(compressPart(make([]byte, 1<<16), nil), true, uint32(64), none, uint32(0))
	f.Add(compressPart(raw, []byte(`<other/>`)), true, uint32(len(raw)), none, uint32(0))
	// Dictionary parts: a good one after a raw, a gzip and a dictionary
	// base, one written against another chain (wrong DICTID), one after a
	// damaged base, bytes after the stream, a recorded length the stream
	// cannot hold, no manifest, and a base longer than the dictionary.
	d := []byte(`<delta><update xid="3"><old>payload 1</old><new>payload 2</new></update></delta>`)
	dz := compressPart(d, raw)
	damaged := bytes.Clone(z)
	damaged[len(damaged)/2] ^= 0x10
	big := []byte(strings.Repeat(`<item><rev>1</rev><body>payload 1</body></item>`, 1000))
	f.Add(raw, true, uint32(len(raw)), dz, uint32(len(d)))
	f.Add(gz, true, uint32(len(raw)), dz, uint32(len(d)))
	f.Add(z, true, uint32(len(raw)), dz, uint32(len(d)))
	f.Add(z, true, uint32(len(raw)), compressPart(d, []byte(`<other/>`)), uint32(len(d)))
	f.Add(damaged, true, uint32(len(raw)), dz, uint32(len(d)))
	f.Add(z, true, uint32(len(raw)), append(bytes.Clone(dz), 0), uint32(len(d)))
	f.Add(z, true, uint32(len(raw)), dz, uint32(maxDeflateRatio*len(dz)+1))
	f.Add(z, false, uint32(len(raw)), dz, uint32(len(d)))
	f.Add(compressPart(big, nil), true, uint32(len(big)), compressPart(d, big[len(big)-dictSize:]), uint32(len(d)))
	f.Fuzz(func(t *testing.T, data []byte, withSums bool, size uint32, part []byte, partSize uint32) {
		dir := t.TempDir()
		sub := filepath.Join(dir, shardDirName(0), docsDirName, "doc")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeManifest(faultfs.OS{}, dir, &manifest{Format: manifestFormat, Shards: 1}); err != nil {
			t.Fatal(err)
		}
		holds := stdDecode(data, nil)
		files := map[string]string{"versions": "1", "v1.xml": string(data)}
		sums := fmt.Sprintf("v1.xml %08x %d\n", checksum(holds), size)
		var partHolds []byte
		if len(part) > 0 {
			partHolds = stdDecode(part, holds[max(len(holds)-dictSize, 0):])
			files["versions"] = "2"
			files[deltaFile(1)] = string(part)
			sums += fmt.Sprintf("%s %08x %d\n", deltaFile(1), checksum(partHolds), partSize)
		}
		if withSums {
			files[sumsName] = sums
		}
		for name, content := range files {
			if err := os.WriteFile(filepath.Join(sub, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir, diff.Options{}, Config{Shards: 1, compactSegments: -1})
		if err != nil {
			var ce *corruptError
			switch {
			case !errors.As(err, &ce):
				t.Fatalf("Open = %v, want a corruptError", err)
			case ce.file == filepath.Join(sub, "v1.xml"):
			case ce.file == filepath.Join(sub, deltaFile(1)) && len(part) > 0:
				// The delta is refused only after v1.xml decoded.
				parsed, _ := parseSums([]byte(sums))
				if !withSums {
					parsed = nil
				}
				if _, berr := decodeContent(sub, "v1.xml", data, parsed, nil); berr != nil {
					t.Fatalf("Open refused %s, but v1.xml before it does not decode: %v", deltaFile(1), berr)
				}
			default:
				t.Fatalf("Open = %v, want a corruptError naming v1.xml or %s", err, deltaFile(1))
			}
			return
		}
		defer s.Close()
		st := s.shards[0].docs["doc"]
		check := func(name string, got, data, holds []byte, size uint32) {
			switch {
			case !isCompressed(data):
				if !bytes.Equal(got, data) {
					t.Fatalf("raw %s loaded as different bytes", name)
				}
			case !withSums:
				t.Fatalf("compressed %s with no recorded length loaded", name)
			case int64(len(got)) != int64(size) || !bytes.Equal(got, holds):
				t.Fatalf("%s loaded %d bytes, recorded length %d", name, len(got), size)
			}
		}
		base, deltas := chainXML(t, st)
		check("v1.xml", base, data, holds, size)
		if len(part) > 0 {
			check(deltaFile(1), deltas[0], part, partHolds, partSize)
		}
	})
}
