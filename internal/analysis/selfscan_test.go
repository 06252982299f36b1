package analysis

// The self-scan is the suite's own regression gate: the whole module,
// every analyzer, zero findings. It is what the vet stage of `make
// check` enforces in CI, pinned as a unit test so a change to an
// analyzer (or to the code it audits) that introduces a finding —
// including a newly stale //xyvet:allow directive — fails here first,
// with the finding in the failure message.

import (
	"path/filepath"
	"testing"
)

func TestRepoSelfScanIsClean(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	loader, err := LoaderForDir(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("self-scan loaded only %d packages; the module has far more", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: does not type-check: %v", pkg.Path, terr)
		}
	}
	for _, d := range Run(pkgs, All()) {
		rel, err := filepath.Rel(loader.ModDir, d.File)
		if err != nil {
			rel = d.File
		}
		t.Errorf("%s:%d:%d: [%s] %s", rel, d.Line, d.Column, d.Analyzer, d.Message)
	}
}
