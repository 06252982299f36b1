package analysis

// The analyzer self-tests run each analyzer over a txtar fixture
// archive in testdata/<name>.txtar. An archive holds a tiny module:
// a go.mod plus a "flagged" package exercising each diagnostic the
// analyzer emits and a "clean" package that must stay silent — the
// clean side includes an //xyvet:allow suppression so the directive
// machinery is proven on every analyzer.
//
// Expected findings are `// want `regexp`` markers on the line the
// diagnostic must land on. Every diagnostic must match a marker and
// every marker must be matched, so the tests fail on both false
// negatives and false positives.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestNoPanicFixture(t *testing.T)     { runFixture(t, NoPanic) }
func TestLockBalanceFixture(t *testing.T) { runFixture(t, LockBalance) }
func TestCtxFlowFixture(t *testing.T)     { runFixture(t, CtxFlow) }
func TestErrWrapFixture(t *testing.T)     { runFixture(t, ErrWrap) }
func TestSegOrderFixture(t *testing.T)    { runFixture(t, SegOrder) }
func TestGoroLeakFixture(t *testing.T)    { runFixture(t, GoroLeak) }
func TestPoolBalanceFixture(t *testing.T) { runFixture(t, PoolBalance) }
func TestTimerLeakFixture(t *testing.T)   { runFixture(t, TimerLeak) }
func TestDepBoundFixture(t *testing.T)    { runFixture(t, DepBound) }

// The staleallow fixture runs the whole suite: a directive is only
// provably stale when every analyzer it could have suppressed ran.
func TestStaleAllowFixture(t *testing.T) { runFixtureSuite(t, StaleAllow.Name, All()) }

func runFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	runFixtureSuite(t, a.Name, []*Analyzer{a})
}

func runFixtureSuite(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	t.Parallel()
	archive := filepath.Join("testdata", name+".txtar")
	data, err := os.ReadFile(archive)
	if err != nil {
		t.Fatal(err)
	}
	files := parseTxtar(data)
	if len(files) == 0 {
		t.Fatalf("%s: no files in archive", archive)
	}
	dir := t.TempDir()
	for _, f := range files {
		path := filepath.Join(dir, filepath.FromSlash(f.name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	loader, err := LoaderForDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: fixture does not type-check: %v", pkg.Path, terr)
		}
	}

	want := collectWant(t, files, dir)
	matched := make([]bool, len(want))
	for _, d := range Run(pkgs, analyzers) {
		found := false
		for i, w := range want {
			if matched[i] || w.file != d.File || w.line != d.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range want {
		if !matched[i] {
			t.Errorf("%s:%d: missing diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// wantMarker is one expected diagnostic: the line it must land on and
// a regexp its message must match.
type wantMarker struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRe = regexp.MustCompile("// want `([^`]*)`")

func collectWant(t *testing.T, files []fixtureFile, dir string) []wantMarker {
	t.Helper()
	var out []wantMarker
	for _, f := range files {
		if !strings.HasSuffix(f.name, ".go") {
			continue
		}
		path := filepath.Join(dir, filepath.FromSlash(f.name))
		for i, line := range strings.Split(string(f.data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", f.name, i+1, m[1], err)
				}
				out = append(out, wantMarker{file: path, line: i + 1, re: re})
			}
		}
	}
	return out
}

// fixtureFile is one entry of a txtar archive.
type fixtureFile struct {
	name string
	data []byte
}

// parseTxtar splits the minimal txtar format: `-- name --` lines open
// a file, everything until the next marker is its content. Text before
// the first marker is archive commentary and is ignored.
func parseTxtar(data []byte) []fixtureFile {
	var files []fixtureFile
	var cur *fixtureFile
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if name, ok := txtarMarker(strings.TrimSuffix(strings.TrimSuffix(line, "\n"), "\r")); ok {
			files = append(files, fixtureFile{name: name})
			cur = &files[len(files)-1]
			continue
		}
		if cur != nil {
			cur.data = append(cur.data, line...)
		}
	}
	return files
}

func txtarMarker(line string) (string, bool) {
	rest, ok := strings.CutPrefix(line, "-- ")
	if !ok {
		return "", false
	}
	name, ok := strings.CutSuffix(rest, " --")
	if !ok || strings.TrimSpace(name) == "" {
		return "", false
	}
	return strings.TrimSpace(name), true
}

func TestParseTxtar(t *testing.T) {
	t.Parallel()
	arc := "comment line\n-- a/x.go --\npackage a\n-- go.mod --\nmodule m\n"
	files := parseTxtar([]byte(arc))
	if len(files) != 2 {
		t.Fatalf("got %d files, want 2", len(files))
	}
	if files[0].name != "a/x.go" || string(files[0].data) != "package a\n" {
		t.Errorf("file 0 = %q %q", files[0].name, files[0].data)
	}
	if files[1].name != "go.mod" || string(files[1].data) != "module m\n" {
		t.Errorf("file 1 = %q %q", files[1].name, files[1].data)
	}
}
