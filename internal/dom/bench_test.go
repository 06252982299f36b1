package dom

import (
	"strings"
	"testing"

	"xydiff/internal/alloctest"
)

func benchDoc(depth, fanout int) string {
	var b strings.Builder
	var rec func(d int)
	rec = func(d int) {
		if d == 0 {
			b.WriteString("<leaf>some text content here</leaf>")
			return
		}
		b.WriteString("<node attr=\"value\">")
		for i := 0; i < fanout; i++ {
			rec(d - 1)
		}
		b.WriteString("</node>")
	}
	rec(depth)
	return b.String()
}

func BenchmarkParse(b *testing.B) {
	src := benchDoc(5, 4) // 2389 nodes
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(src); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseAllocationsPerNode keeps a per-token copy from creeping
// back into the parser: a node costs its struct, its value or its
// attributes, and a share of its parent's child slice — under three
// allocations. (Over encoding/xml tokens it was 6.7.) A count, not a
// timing, so it can gate go test.
func TestParseAllocationsPerNode(t *testing.T) {
	src := []byte(benchDoc(5, 4))
	doc, err := ParseBytes(src, DefaultParseOptions())
	if err != nil {
		t.Fatal(err)
	}
	nodes := doc.Size() - 1 // the Document is not the input's
	allocs, _ := alloctest.Cost(t, 10, func() {
		if _, err := ParseBytes(src, DefaultParseOptions()); err != nil {
			t.Fatal(err)
		}
	})
	if perNode := allocs / float64(nodes); perNode > 3.0 {
		t.Errorf("%.0f allocations for %d nodes: %.2f per node, want at most 3.0", allocs, nodes, perNode)
	}
}

func BenchmarkSerialize(b *testing.B) {
	doc, err := ParseString(benchDoc(5, 4))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = doc.String()
	}
}

func BenchmarkClone(b *testing.B) {
	doc, _ := ParseString(benchDoc(5, 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = doc.Clone()
	}
}

func BenchmarkEqual(b *testing.B) {
	doc, _ := ParseString(benchDoc(5, 4))
	other := doc.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Equal(doc, other) {
			b.Fatal("unexpectedly unequal")
		}
	}
}

func BenchmarkWalkPost(b *testing.B) {
	doc, _ := ParseString(benchDoc(5, 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		WalkPost(doc, func(*Node) bool { n++; return true })
	}
}
