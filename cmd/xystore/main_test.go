package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"xydiff/internal/diff"
	"xydiff/internal/faultfs"
	"xydiff/internal/faultfs/faultfstest"
	"xydiff/internal/vstore"
)

func writeDoc(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStoreWorkflow(t *testing.T) {
	dir := t.TempDir()
	wh := filepath.Join(dir, "warehouse")
	v1 := writeDoc(t, dir, "v1.xml", `<cat><p><name>a</name><price>$1</price></p></cat>`)
	v2 := writeDoc(t, dir, "v2.xml", `<cat><p><name>a</name><price>$2</price></p><p><name>b</name><price>$3</price></p></cat>`)

	for _, args := range [][]string{
		{"put", "docs/cat", v1},
		{"put", "docs/cat", v2},
		{"ids"},
		{"log", "docs/cat"},
		{"cat", "docs/cat"},
		{"cat", "docs/cat", "1"},
		{"delta", "docs/cat", "1"},
		{"aggregate", "docs/cat", "1", "2"},
		{"value", "docs/cat", "//p[1]/price"},
		{"history", "docs/cat", "1"},
		{"grep", "docs/cat", "1", "2", "//p"},
	} {
		if err := run(wh, args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

func TestStoreErrors(t *testing.T) {
	dir := t.TempDir()
	wh := filepath.Join(dir, "warehouse")
	good := writeDoc(t, dir, "v1.xml", `<r/>`)
	if err := run(wh, []string{"put", "d", good}); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"bogus-command"},
		{"put"},                      // missing args
		{"put", "d", "missing.xml"},  // missing file
		{"log"},                      // missing id
		{"log", "ghost"},             // unknown id
		{"cat"},                      // missing id
		{"cat", "ghost"},             // unknown id
		{"cat", "d", "notanumber"},   // bad version
		{"delta", "d"},               // missing args
		{"delta", "d", "9"},          // out of range
		{"aggregate", "d", "1"},      // missing args
		{"aggregate", "d", "x", "y"}, // bad numbers
		{"value", "d"},               // missing expr
		{"value", "d", "[broken"},    // bad expr
		{"history", "d"},             // missing XID
		{"history", "d", "x"},        // bad XID
		{"history", "ghost", "1"},    // unknown id
		{"grep", "d", "1", "2"},      // missing expr
		{"grep", "d", "x", "y", "//a"},
	}
	for _, args := range cases {
		if err := run(wh, args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestHistory follows one node by its XID through three versions: in
// place, moved under another parent, then deleted.
func TestHistory(t *testing.T) {
	dir := t.TempDir()
	wh := filepath.Join(dir, "warehouse")
	for i, body := range []string{
		`<cat><a><p>tracked text</p></a><b/></cat>`,
		`<cat><a/><b><p>tracked text</p></b></cat>`,
		`<cat><a/><b/></cat>`,
	} {
		if err := run(wh, []string{"put", "d", writeDoc(t, dir, fmt.Sprintf("v%d.xml", i+1), body)}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := vstore.Open(wh, diff.Options{}, vstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v1, err := s.Version("d", 1)
	if err != nil {
		t.Fatal(err)
	}
	p := v1.Root().Children[0].Children[0]
	var out bytes.Buffer
	if err := runHistory(&out, s, []string{"d", strconv.FormatInt(p.XID, 10)}); err != nil {
		t.Fatal(err)
	}
	want := "v1\t/cat/a/p\ttracked text\nv2\t/cat/b/p\ttracked text\nv3\t(absent)\n"
	if out.String() != want {
		t.Errorf("history of <p> (XID %d):\n%s\nwant:\n%s", p.XID, out.String(), want)
	}
}

func TestLoadOrEmpty(t *testing.T) {
	s, err := loadOrEmpty(filepath.Join(t.TempDir(), "does-not-exist"))
	if err != nil || s == nil {
		t.Fatalf("loadOrEmpty fresh = %v, %v", s, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInspectAndCompact: a fresh warehouse is sharded, inspect renders
// its storage summary, and compact folds the segment logs.
func TestInspectAndCompact(t *testing.T) {
	dir := t.TempDir()
	wh := filepath.Join(dir, "warehouse")
	v1 := writeDoc(t, dir, "v1.xml", `<r><a>1</a></r>`)
	v2 := writeDoc(t, dir, "v2.xml", `<r><a>2</a><b/></r>`)
	for _, args := range [][]string{
		{"put", "d", v1},
		{"put", "d", v2},
		{"inspect"},
		{"compact"},
		{"cat", "d", "1"},
	} {
		if err := run(wh, args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	// After compact every version lives in snapshots: the docs dirs of
	// the shards must hold the document.
	s, err := vstore.Open(wh, diff.Options{}, vstore.Config{})
	if err != nil {
		t.Fatalf("warehouse is not sharded after put: %v", err)
	}
	defer s.Close()
	if got := s.Versions("d"); got != 2 {
		t.Fatalf("d has %d versions, want 2", got)
	}
	if rec := s.RecoveryStats(); rec.SnapshotVersions != 2 {
		t.Fatalf("compact left %d snapshot versions, want 2", rec.SnapshotVersions)
	}
	// inspect reports the compacted snapshot: its format, the bytes its
	// content files take on disk against the raw bytes they hold, and
	// the files and bytes of each encoding: v1.xml and the delta are
	// both dictionary streams.
	var out bytes.Buffer
	if err := runInspect(&out, s); err != nil {
		t.Fatal(err)
	}
	ss := s.StorageStats()
	for _, want := range []string{
		"layout\tsharded segment logs (vstore-v3)\n",
		fmt.Sprintf("snapshots\t%d bytes stored, %d raw (", ss.SnapshotStoredBytes, ss.SnapshotRawBytes),
		fmt.Sprintf("; raw 0 files 0 bytes; gzip 0 files 0 bytes; dictionary 2 files %d bytes\n", ss.SnapshotStoredBytes),
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("inspect output lacks %q:\n%s", want, out.String())
		}
	}
	if ss.SnapshotStoredBytes == 0 || ss.SnapshotRawBytes == 0 {
		t.Errorf("snapshot bytes after compact: %d stored, %d raw", ss.SnapshotStoredBytes, ss.SnapshotRawBytes)
	}
}

// legacyFixture copies one of the old per-document directories kept
// with the migration tests and returns the copy's path.
func legacyFixture(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("..", "..", "internal", "vstore", "testdata", "legacy", name)
	dst := filepath.Join(t.TempDir(), "warehouse")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestMigrateCommand drives an old per-document directory through the
// CLI's migrate and verifies the converted warehouse serves the same
// versions (the engine-level equivalence lives in internal/vstore).
func TestMigrateCommand(t *testing.T) {
	wh := legacyFixture(t, "mixed")

	// Old layout: every other command refuses with the migrate hint.
	for _, args := range [][]string{{"ids"}, {"inspect"}, {"compact"}, {"cat", "stock", "1"}} {
		if err := run(wh, args); !errors.Is(err, vstore.ErrNeedsMigration) {
			t.Fatalf("%v on old layout = %v, want the migrate hint", args, err)
		}
	}

	if err := run(wh, []string{"migrate", "4"}); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if _, err := os.Stat(wh + ".pre-migrate"); err != nil {
		t.Fatalf("backup missing after migrate: %v", err)
	}
	for _, args := range [][]string{
		{"ids"},
		{"log", "stock"},
		{"cat", "stock", "1"},
		{"inspect"},
		{"compact"},
	} {
		if err := run(wh, args); err != nil {
			t.Fatalf("%v after migrate: %v", args, err)
		}
	}
	s, err := vstore.Open(wh, diff.Options{}, vstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Versions("stock"); got != 5 {
		t.Fatalf("stock has %d versions after migrate, want 5", got)
	}
	// Bad migrate invocations fail loudly.
	if err := run(wh, []string{"migrate"}); err == nil {
		t.Fatal("re-migrating a sharded warehouse succeeded")
	}
	if err := run(wh, []string{"migrate", "zero"}); err == nil {
		t.Fatal("migrate with bad shard count succeeded")
	}
}

func TestScrubCommandShardedLayout(t *testing.T) {
	dir := t.TempDir()
	wh := filepath.Join(dir, "warehouse")
	v1 := writeDoc(t, dir, "v1.xml", `<r><a>1</a></r>`)
	v2 := writeDoc(t, dir, "v2.xml", `<r><a>2</a></r>`)
	for _, args := range [][]string{{"put", "d", v1}, {"put", "d", v2}} {
		if err := run(wh, args); err != nil {
			t.Fatal(err)
		}
	}
	// Clean pass.
	if err := run(wh, []string{"scrub", "-once"}); err != nil {
		t.Fatalf("clean scrub: %v", err)
	}
	// Corrupt a snapshot (compact first so one exists). After the
	// compaction the snapshot is the only copy, so an offline scrub
	// cannot rebuild it: the honest outcome is quarantine + degraded,
	// never a refused run and never a silent wrong read.
	if err := run(wh, []string{"compact"}); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(wh, "shard-*", "docs", "*", "v1.xml"))
	if len(matches) != 1 {
		t.Fatalf("snapshots = %v", matches)
	}
	if err := faultfstest.FlipBit(faultfs.OS{}, matches[0], 2, 4); err != nil {
		t.Fatal(err)
	}
	if err := run(wh, []string{"scrub", "-once", "-repair"}); err != nil {
		t.Fatalf("scrub on damaged dir: %v", err)
	}
	q, _ := filepath.Glob(filepath.Join(wh, "shard-*", "docs", "*.quarantine"))
	if len(q) != 1 {
		t.Fatalf("quarantined snapshot dirs = %v", q)
	}
	// Reads of the lost history surface a degraded error, not bytes
	// from the corrupt file.
	if err := run(wh, []string{"cat", "d", "1"}); err == nil {
		t.Fatal("cat of quarantined history succeeded")
	}
}

// TestScrubCommandOldLayout: scrub, like every command but migrate,
// refuses an old per-document directory with the migrate hint and
// leaves it as it was.
func TestScrubCommandOldLayout(t *testing.T) {
	wh := legacyFixture(t, "torn")
	journal := filepath.Join(wh, "journal-news.log")
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"scrub", "-once"}, {"scrub", "-once", "-repair"}} {
		if err := run(wh, args); !errors.Is(err, vstore.ErrNeedsMigration) {
			t.Fatalf("%v on old layout = %v, want the migrate hint", args, err)
		}
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("scrub changed the old directory's torn journal")
	}
	if entries, err := os.ReadDir(wh); err != nil || len(entries) != 1 {
		t.Fatalf("old directory now holds %d entries (%v), want its one journal", len(entries), err)
	}
}
