package analysis

import "testing"

// BenchmarkXyvet measures the full xyvet pipeline over the repo's own
// module — parse, type-check and run every analyzer from a cold cache.
// This is the cost `make xyvet` pays per invocation.
func BenchmarkXyvet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loader, err := LoaderForDir(".")
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := loader.Load("./...")
		if err != nil {
			b.Fatal(err)
		}
		if diags := Run(pkgs, All()); len(diags) != 0 {
			b.Fatalf("xyvet is not clean on its own repo: %d diagnostics, first: %s", len(diags), diags[0])
		}
	}
}

// BenchmarkXyvetAnalyzers isolates the analyzer passes from the
// loading cost: the module is parsed and type-checked once, then the
// suite runs per iteration.
func BenchmarkXyvetAnalyzers(b *testing.B) {
	loader, err := LoaderForDir(".")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := Run(pkgs, All()); len(diags) != 0 {
			b.Fatalf("xyvet is not clean on its own repo: %d diagnostics, first: %s", len(diags), diags[0])
		}
	}
}
