package dom_test

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/dom"
)

// catalog is a document of the size and shape the ingest_large
// workload of BENCHMARK.json uploads: a ~150 KB product catalog,
// attributes and short texts throughout.
func catalog() *dom.Node { return changesim.CatalogOfSize(rand.New(rand.NewSource(1)), 130000) }

// BenchmarkParseCatalog parses the catalog. It goes through the reader
// entry point, as the benchmark's traced parse does.
func BenchmarkParseCatalog(b *testing.B) {
	src := []byte(catalog().String())
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dom.ParseWithOptions(bytes.NewReader(src), dom.DefaultParseOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseAllocations keeps the catalog's parse at what the builder's
// chunks cost. (With a heap object for every node and every child slice
// it made 12 699 allocations; with nodes, child slices and attributes
// cut from chunks of at most 32 KiB, 2 961, nearly all of them a string
// per text and attribute value; with the values copied into an arena
// of such chunks too, 65.) It goes through the reader entry point, as
// BenchmarkParseCatalog does. A count, not a timing, so it can gate go
// test.
func TestParseAllocations(t *testing.T) {
	src := []byte(catalog().String())
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := dom.ParseWithOptions(bytes.NewReader(src), dom.DefaultParseOptions()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("parsing a %d-byte catalog: %.0f allocations", len(src), allocs)
	if allocs > 150 {
		t.Errorf("parsing a %d-byte catalog allocates %.0f times, want at most 150", len(src), allocs)
	}
}

// BenchmarkEncodeCatalog serializes the catalog three ways: appended
// to a reused buffer (how the store answers a version read), counted
// only, and written to an io.Writer through the encoder's buffer.
func BenchmarkEncodeCatalog(b *testing.B) {
	doc := catalog()
	size := doc.EncodedLen()
	b.Run("AppendXML", func(b *testing.B) {
		buf := make([]byte, 0, size)
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = doc.AppendXML(buf[:0])
		}
	})
	b.Run("EncodedLen", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			doc.EncodedLen()
		}
	})
	b.Run("WriteTo", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := doc.WriteTo(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCloneCatalog copies the catalog, as a backward read walk
// copies the cached latest version.
func BenchmarkCloneCatalog(b *testing.B) {
	doc := catalog()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc.Clone()
	}
}
