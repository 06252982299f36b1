package xydiff_test

import (
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
)

// TestFuzzSmokeListsEveryFuzzer: the fuzz-smoke list in
// scripts/check.sh, which `make check` runs, names exactly the
// repository's fuzz targets, once, so a new Fuzz function cannot be left
// out of the gate and a deleted one cannot linger in it. Go runs one
// fuzz target per invocation, which is why the list is written out by
// hand.
func TestFuzzSmokeListsEveryFuzzer(t *testing.T) {
	var want []string
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
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			want = append(want, pkg+" "+string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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
