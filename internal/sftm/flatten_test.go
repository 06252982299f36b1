package sftm

import (
	"testing"

	"xydiff/internal/dom"
)

func TestFlattenShape(t *testing.T) {
	doc, err := dom.ParseString(`<r><a x="1">hi</a><b/><?pi x?><c><d/><a/></c><!--end--></r>`)
	if err != nil {
		t.Fatal(err)
	}
	ft := flatten(doc, make(map[string]int32))
	if ft.len() != doc.Size() {
		t.Fatalf("len = %d, want %d", ft.len(), doc.Size())
	}
	if ft.parent[0] != -1 {
		t.Fatalf("document parent = %d", ft.parent[0])
	}
	for i := 1; i < ft.len(); i++ {
		p := ft.parent[i]
		if p < 0 || p >= int32(i) {
			t.Fatalf("node %d: parent %d not an earlier index", i, p)
		}
		if ft.nodes[i].Parent != ft.nodes[p] {
			t.Fatalf("node %d: parent pointer mismatch", i)
		}
	}
	for i := int32(0); i < int32(ft.len()); i++ {
		kids := ft.children(i)
		if len(kids) != len(ft.nodes[i].Children) {
			t.Fatalf("node %d: %d kids, want %d", i, len(kids), len(ft.nodes[i].Children))
		}
		for j, k := range kids {
			if ft.nodes[k] != ft.nodes[i].Children[j] {
				t.Fatalf("node %d kid %d out of document order", i, j)
			}
			prev, next := int32(-1), int32(-1)
			if j > 0 {
				prev = kids[j-1]
			}
			if j+1 < len(kids) {
				next = kids[j+1]
			}
			if ft.prev[k] != prev || ft.next[k] != next {
				t.Fatalf("node %d: siblings (%d,%d), want (%d,%d)", k, ft.prev[k], ft.next[k], prev, next)
			}
		}
	}
	// Kinds are equal exactly for nodes of the same type and, for
	// elements and processing instructions, the same label.
	for i := 1; i < ft.len(); i++ {
		for j := 1; j < ft.len(); j++ {
			a, b := ft.nodes[i], ft.nodes[j]
			same := a.Type == b.Type
			if a.Type == dom.Element || a.Type == dom.ProcInst {
				same = same && a.Name == b.Name
			}
			if (ft.kind[i] == ft.kind[j]) != same {
				t.Fatalf("kinds of nodes %d and %d: %d, %d", i, j, ft.kind[i], ft.kind[j])
			}
		}
	}
}
