package xydiff_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	fuzzFunc  = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(\w+ \*testing\.F\)`)
	smokeLine = regexp.MustCompile(`test (\.\S*) -run '\^\$+' -fuzz '\^(Fuzz\w+)\$+'`)
	// directCount is a count of allocations made without alloctest.
	directCount = regexp.MustCompile(`testing\.AllocsPerRun|\.(Mallocs|TotalAlloc)\b`)
)

// TestFuzzSmokeListsEveryFuzzer: the fuzz-smoke list in
// scripts/check.sh, which `make check` runs, names exactly the
// repository's fuzz targets, once, so a new Fuzz function cannot be left
// out of the gate and a deleted one cannot linger in it. Go runs one
// fuzz target per invocation, which is why the list is written out by
// hand.
func TestFuzzSmokeListsEveryFuzzer(t *testing.T) {
	var want []string
	eachTestFile(t, func(pkg, _ string, src []byte) {
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			want = append(want, pkg+" "+string(m[1]))
		}
	})
	slices.Sort(want)
	if len(want) == 0 {
		t.Fatal("found no fuzz targets")
	}
	src, err := os.ReadFile("scripts/check.sh")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, m := range smokeLine.FindAllSubmatch(src, -1) {
		got = append(got, string(m[1])+" "+string(m[2]))
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("scripts/check.sh's fuzz smoke runs\n  %s\nwant the repository's fuzz targets\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestAllocationCountsGoThroughAlloctest: a test counts allocations or
// allocated bytes only through alloctest.Cost, which skips under the
// race detector, so every count runs in the gate's norace stage and in
// none under -race. A test that calls testing's AllocsPerRun or reads
// a runtime.MemStats's Mallocs or TotalAlloc fails here. (HeapAlloc,
// the live heap after a collection, is not a count of a call.)
func TestAllocationCountsGoThroughAlloctest(t *testing.T) {
	eachTestFile(t, func(_, path string, src []byte) {
		for _, m := range directCount.FindAllIndex(src, -1) {
			line := 1 + bytes.Count(src[:m[0]], []byte("\n"))
			t.Errorf("%s:%d: counts allocations with %s; use alloctest.Cost", path, line, src[m[0]:m[1]])
		}
	})
}

// eachTestFile calls f with every _test.go file of the module, testdata
// and hidden directories aside: its package as `go test` names it
// ("." or "./internal/dom"), its path and its source.
func eachTestFile(t *testing.T, f func(pkg, path string, src []byte)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "."
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg = "./" + dir
		}
		f(pkg, path, src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
