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

// TestFuzzSmokeListsEveryFuzzer: the fuzz-smoke lists in the Makefile
// and in scripts/check.sh each name exactly the repository's fuzz
// targets, once, so a new Fuzz function cannot be left out of the gate
// and a deleted one cannot linger in it. Go runs one fuzz target per
// invocation, which is why both lists are written out by hand.
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
	for _, list := range []string{"Makefile", "scripts/check.sh"} {
		src, err := os.ReadFile(list)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, m := range smokeLine.FindAllSubmatch(src, -1) {
			got = append(got, string(m[1])+" "+string(m[2]))
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s's fuzz smoke runs\n  %s\nwant the repository's fuzz targets\n  %s",
				list, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
	}
}
