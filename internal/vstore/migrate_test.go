package vstore

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/diff"
	"xydiff/internal/faultfs"
	"xydiff/internal/store"
)

// The fixtures under testdata/legacy are directories in the old
// per-document layout, one per case Migrate must read: a fully
// snapshotted document, a journal-only one, a snapshot plus a
// post-checkpoint journal, a journal with a torn tail (< 8 bytes), an
// id that needs _xx escaping, and an id that sorts after "journal-".
// digests.txt pins what migrating each one produces.
var legacyFixtures = []string{"escaped", "journal", "late", "mixed", "snapshot", "torn"}

func fixturePath(name string) string { return filepath.Join("testdata", "legacy", name) }

// copyFixture copies a fixture to a fresh directory (whose parent has
// room for the .pre-migrate backup) and returns the copy's path.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	return copyDir(t, fixturePath(name))
}

// copyDir copies the tree under src to a fresh directory and returns
// the copy's path.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	for rel, b := range treeFiles(t, src) {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// treeFiles maps every file under root, by slash-separated relative
// path, to its content.
func treeFiles(t testing.TB, root string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		files[filepath.ToSlash(rel)] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// sameTree reports whether two directories hold the same files with
// the same bytes.
func sameTree(t *testing.T, a, b string) bool {
	t.Helper()
	return reflect.DeepEqual(treeFiles(t, a), treeFiles(t, b))
}

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// pinnedDigests reads testdata/legacy/digests.txt: fixture → "kind
// path" → SHA-256.
func pinnedDigests(t *testing.T) map[string]map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "legacy", "digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			t.Fatalf("bad digests line %q", line)
		}
		if out[fields[0]] == nil {
			out[fields[0]] = make(map[string]string)
		}
		out[fields[0]][fields[1]+" "+fields[2]] = fields[3]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// decodedView is a migrated file in the terms digests.txt was recorded
// in, before snapshot content files were compressed: a content file's
// decoded XML (which must be stored compressed, and is decoded with the
// rest of its chain, in chain order), a checksum manifest without its
// length column, and the engine marker with the format it had then
// (which must now be vstore-v3). Every other file is as it is. So the
// pins prove the conversion carries the same content, and only its
// encoding on disk changed.
func decodedView(t *testing.T, dir, rel string, b []byte) []byte {
	t.Helper()
	name := filepath.Base(rel)
	switch {
	case name == manifestName:
		v1 := bytes.Replace(b, []byte(`"`+manifestFormat+`"`), []byte(`"`+manifestFormatRaw+`"`), 1)
		if bytes.Equal(v1, b) {
			t.Fatalf("%s does not say %s: %s", rel, manifestFormat, b)
		}
		return v1
	case name == sumsName:
		var out []byte
		for _, line := range strings.SplitAfter(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 {
				line = f[0] + " " + f[1] + "\n"
			}
			out = append(out, line...)
		}
		return out
	case name == "v1.xml" || strings.HasPrefix(name, "delta-"):
		if !isCompressed(b) {
			t.Fatalf("%s is not compressed", rel)
		}
		st, err := loadSnapshot(faultfs.OS{}, filepath.Dir(filepath.Join(dir, filepath.FromSlash(rel))))
		if err != nil {
			t.Fatal(err)
		}
		base, deltas := chainXML(t, st)
		if name == "v1.xml" {
			return base
		}
		for v, d := range deltas {
			if deltaFile(v+1) == name {
				return d
			}
		}
		t.Fatalf("%s is not a part of its snapshot's chain", rel)
	}
	return b
}

// migratedDigests is digests.txt's view of a migrated directory: every
// file's decoded view, then every version and delta as the opened store
// serves them.
func migratedDigests(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for rel, b := range treeFiles(t, dir) {
		out["file "+rel] = sha(decodedView(t, dir, rel, b))
	}
	s, err := Open(dir, diff.Options{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, id := range s.IDs() {
		n := s.Versions(id)
		for v := 1; v <= n; v++ {
			doc, err := s.Version(id, v)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("version %s/%d", escapeID(id), v)] = sha([]byte(doc.String()))
			if v == n {
				continue
			}
			d, err := s.Aggregate(id, v, v+1)
			if err != nil {
				t.Fatal(err)
			}
			body, err := d.MarshalText()
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("delta %s/%d", escapeID(id), v)] = sha(body)
		}
	}
	return out
}

// TestMigrateRoundTrip migrates every fixture and requires the pinned
// digests of every file, version and delta; the migrated store then
// keeps taking Puts.
func TestMigrateRoundTrip(t *testing.T) {
	pinned := pinnedDigests(t)
	for _, name := range legacyFixtures {
		t.Run(name, func(t *testing.T) {
			dir := copyFixture(t, name)
			count, err := Migrate(dir, diff.Options{}, Config{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			if count != 1 {
				t.Fatalf("migrated %d documents, want 1", count)
			}
			got, want := migratedDigests(t, dir), pinned[name]
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("migrated digests differ from the pinned ones:\ngot  %v\nwant %v", got, want)
			}
			s, err := Open(dir, diff.Options{}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			id := s.IDs()[0]
			latest, n, err := s.Latest(id)
			if err != nil {
				t.Fatal(err)
			}
			res, err := changesim.Simulate(latest, changesim.Uniform(0.2, 11))
			if err != nil {
				t.Fatal(err)
			}
			if v, _, err := s.Put(id, res.New); err != nil || v != n+1 {
				t.Fatalf("post-migration Put = v%d, %v; want v%d", v, err, n+1)
			}
		})
	}
}

// readLog is the real filesystem, recording every file read.
type readLog struct {
	faultfs.OS
	read map[string]bool
}

func (r *readLog) ReadFile(path string) ([]byte, error) {
	r.read[path] = true
	return r.OS.ReadFile(path)
}

// TestMigrateLeavesOriginalUntouched: the backup Migrate keeps is the
// original byte for byte, a torn journal tail included, and the
// original is read through cfg.FS.
func TestMigrateLeavesOriginalUntouched(t *testing.T) {
	for _, name := range legacyFixtures {
		dir := copyFixture(t, name)
		fsys := &readLog{read: make(map[string]bool)}
		if _, err := Migrate(dir, diff.Options{}, Config{Shards: 3, FS: fsys}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameTree(t, fixturePath(name), dir+".pre-migrate") {
			t.Fatalf("%s: the backup differs from the original", name)
		}
		for rel := range treeFiles(t, fixturePath(name)) {
			if path := filepath.Join(dir, filepath.FromSlash(rel)); !strings.HasSuffix(rel, "latest.xml") && !fsys.read[path] {
				t.Fatalf("%s: %s was not read through Config.FS", name, rel)
			}
		}
	}
}

func TestMigrateRefusesWrongDirectories(t *testing.T) {
	t.Run("sharded", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, diff.Options{}, Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Put("doc", parse(t, `<a/>`)); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if _, err := Migrate(dir, diff.Options{}, Config{}); err == nil || !strings.Contains(err.Error(), "already in sharded layout") {
			t.Fatalf("Migrate(sharded dir) = %v, want 'already in sharded layout'", err)
		}
	})
	t.Run("missing", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "nope")
		if _, err := Migrate(dir, diff.Options{}, Config{}); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Migrate(missing dir) = %v, want fs.ErrNotExist", err)
		}
		for _, path := range []string{dir, dir + ".pre-migrate", dir + ".migrating"} {
			if _, err := os.Stat(path); err == nil {
				t.Fatalf("Migrate(missing dir) created %s", path)
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Migrate(t.TempDir(), diff.Options{}, Config{}); err == nil || !strings.Contains(err.Error(), "not a per-document store") {
			t.Fatalf("Migrate(empty dir) = %v, want 'not a per-document store'", err)
		}
	})
	t.Run("rerun", func(t *testing.T) {
		dir := copyFixture(t, "mixed")
		if _, err := Migrate(dir, diff.Options{}, Config{Shards: 2}); err != nil {
			t.Fatal(err)
		}
		// dir is now sharded and the backup exists; a rerun must refuse loudly.
		if _, err := Migrate(dir, diff.Options{}, Config{Shards: 2}); err == nil || !strings.Contains(err.Error(), "pre-migrate") {
			t.Fatalf("rerun after migration = %v, want backup complaint", err)
		}
	})
}

// TestMigrateIgnoresStrayFiles: entries that belong to neither layout
// — a stray file, a snapshot directory whose counter was never written
// — are left alone, in the backup.
func TestMigrateIgnoresStrayFiles(t *testing.T) {
	dir := copyFixture(t, "snapshot")
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a document"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "half-written"), 0o755); err != nil {
		t.Fatal(err)
	}
	if n, err := Migrate(dir, diff.Options{}, Config{}); err != nil || n != 1 {
		t.Fatalf("Migrate = %d, %v; want 1 document", n, err)
	}
	if _, err := os.Stat(filepath.Join(dir+".pre-migrate", "README")); err != nil {
		t.Fatal(err)
	}
}

// corruptCase damages one file of a copied fixture; Migrate must then
// fail with a *store.CorruptError naming file at offset off (-1 for a whole
// snapshot file).
type corruptCase struct {
	name, fixture string
	damage        func(t *testing.T, dir string)
	file          string
	off           int64
}

// editFile rewrites one file of the copied fixture.
func editFile(rel string, mut func([]byte) []byte) func(t *testing.T, dir string) {
	return func(t *testing.T, dir string) {
		path := filepath.Join(dir, rel)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mut(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func removeFile(rel string) func(t *testing.T, dir string) {
	return func(t *testing.T, dir string) {
		if err := os.RemoveAll(filepath.Join(dir, rel)); err != nil {
			t.Fatal(err)
		}
	}
}

func content(b string) func([]byte) []byte { return func([]byte) []byte { return []byte(b) } }

// refuseCorrupt runs each case: the refused migration reports the
// damaged file and offset, and leaves the directory as it was.
func refuseCorrupt(t *testing.T, cases []corruptCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := copyFixture(t, tc.fixture)
			tc.damage(t, dir)
			before := treeFiles(t, dir)
			_, err := Migrate(dir, diff.Options{}, Config{})
			var ce *store.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Migrate = %v, want a CorruptError", err)
			}
			if ce.File != filepath.Join(dir, tc.file) || ce.Offset != tc.off {
				t.Fatalf("error names %s at %d, want %s at %d", ce.File, ce.Offset, tc.file, tc.off)
			}
			if !reflect.DeepEqual(treeFiles(t, dir), before) {
				t.Fatal("a refused migration changed the directory")
			}
			for _, leftover := range []string{".pre-migrate", ".migrating"} {
				if _, err := os.Stat(dir + leftover); err == nil {
					t.Fatalf("a refused migration left %s behind", dir+leftover)
				}
			}
		})
	}
}

// TestMigrateRefusesCorruptSnapshot: a snapshot file that does not
// read, parse or apply refuses the migration.
func TestMigrateRefusesCorruptSnapshot(t *testing.T) {
	refuseCorrupt(t, []corruptCase{
		{"garbage version counter", "snapshot", editFile("catalog/versions", content("NaN")), "catalog/versions", -1},
		{"zero version counter", "snapshot", editFile("catalog/versions", content("0")), "catalog/versions", -1},
		{"missing base version", "snapshot", removeFile("catalog/v1.xml"), "catalog/v1.xml", -1},
		{"missing delta", "snapshot", removeFile("catalog/delta-0002.xml"), "catalog/delta-0002.xml", -1},
		{"bit flipped base version", "snapshot", editFile("catalog/v1.xml", func(b []byte) []byte {
			b[1] ^= 0x20 // <Catalog> -> <catalog>, closed by </Catalog>
			return b
		}), "catalog/v1.xml", -1},
		{"truncated base version", "snapshot", editFile("catalog/v1.xml", func(b []byte) []byte { return b[:len(b)/2] }), "catalog/v1.xml", -1},
		{"unparseable base version", "snapshot", editFile("catalog/v1.xml", content(`<r><unclosed>`)), "catalog/v1.xml", -1},
		{"zero filled delta", "snapshot", editFile("catalog/delta-0001.xml", func(b []byte) []byte { return make([]byte, len(b)) }), "catalog/delta-0001.xml", -1},
		{"truncated delta", "snapshot", editFile("catalog/delta-0001.xml", func(b []byte) []byte { return b[:len(b)/2] }), "catalog/delta-0001.xml", -1},
		{"unparseable delta", "snapshot", editFile("catalog/delta-0001.xml", content("not xml at all")), "catalog/delta-0001.xml", -1},
		{"inapplicable delta", "snapshot",
			editFile("catalog/delta-0001.xml", content(`<delta><update xid="999"><old>x</old><new>y</new></update></delta>`)),
			"catalog/delta-0001.xml", -1},
	})
}

// TestMigrateRefusesCorruptJournal: a journal record that does not
// read, parse or apply refuses the migration, naming the record's
// offset.
func TestMigrateRefusesCorruptJournal(t *testing.T) {
	journal, err := os.ReadFile(filepath.Join(fixturePath("journal"), "journal-feed.log"))
	if err != nil {
		t.Fatal(err)
	}
	second := 8 + int64(binary.BigEndian.Uint32(journal)) // the second record's offset
	refuseCorrupt(t, []corruptCase{
		{"bit flip in first payload", "journal", editFile("journal-feed.log", func(b []byte) []byte {
			b[8+3] ^= 0x40
			return b
		}), "journal-feed.log", 0},
		{"bit flip in stored crc", "journal", editFile("journal-feed.log", func(b []byte) []byte {
			b[5] ^= 0x01
			return b
		}), "journal-feed.log", 0},
		{"zero filled header", "journal", editFile("journal-feed.log", func(b []byte) []byte {
			copy(b, make([]byte, 8))
			return b
		}), "journal-feed.log", 0},
		{"absurd length field", "journal", editFile("journal-feed.log", func(b []byte) []byte {
			copy(b, []byte{0xff, 0xff, 0xff, 0xff})
			return b
		}), "journal-feed.log", 0},
		{"bit flip mid-log", "journal", editFile("journal-feed.log", func(b []byte) []byte {
			b[second+8+2] ^= 0x10
			return b
		}), "journal-feed.log", second},
		{"journal delta without base", "late", removeFile("zebra"), "journal-zebra.log", 0},
	})
}
