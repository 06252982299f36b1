package dom_test

import (
	"bytes"
	"math/rand"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/dom"
)

// BenchmarkParseCatalog parses a document of the size and shape the
// ingest_large workload of BENCHMARK.json uploads: a ~150 KB product
// catalog, attributes and short texts throughout. It goes through the
// reader entry point, as the benchmark's traced parse does.
func BenchmarkParseCatalog(b *testing.B) {
	src := []byte(changesim.CatalogOfSize(rand.New(rand.NewSource(1)), 130000).String())
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dom.ParseWithOptions(bytes.NewReader(src), dom.DefaultParseOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
