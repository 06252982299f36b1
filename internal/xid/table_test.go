package xid

import (
	"math/rand"
	"testing"

	"xydiff/internal/dom"
)

// TestTableMatchesMap drives a Table and a map through the same random
// writes, deletes and reads — XIDs dense and sparse, zero, negative and
// far beyond anything written — and holds every read to the map's.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	draw := func() int64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return -rng.Int63n(1 << 40)
		case 2:
			return 1<<62 + rng.Int63n(8)
		case 3:
			return rng.Int63n(1 << 20) // sparse
		default:
			return rng.Int63n(4096) // dense
		}
	}
	var tab Table[int32]
	ref := map[int64]int32{}
	var seen []int64
	for i := 0; i < 200_000; i++ {
		x := draw()
		if len(seen) > 0 && rng.Intn(2) == 0 {
			x = seen[rng.Intn(len(seen))]
		}
		switch rng.Intn(4) {
		case 0, 1:
			v := rng.Int31n(1000) + 1
			tab.Set(x, v)
			ref[x] = v
			seen = append(seen, x)
		case 2:
			tab.Delete(x)
			delete(ref, x)
		}
		if got, want := tab.Get(x), ref[x]; got != want {
			t.Fatalf("step %d: Get(%d) = %d, the map has %d", i, x, got, want)
		}
	}
	for x, want := range ref {
		if got := tab.Get(x); got != want {
			t.Fatalf("Get(%d) = %d, the map has %d", x, got, want)
		}
	}
}

// TestTableMemoryFollowsWrites: XIDs a corrupt delta could name —
// 1<<62, negative ones, ones spaced far apart — cost the table at most
// a page and a few directory slots per write, however large they are.
func TestTableMemoryFollowsWrites(t *testing.T) {
	var tab Table[*int]
	v := new(int)
	const writes = 1000
	for i := int64(0); i < writes; i++ {
		tab.Set(1<<62-i, v)
		tab.Set(-i, v)
		tab.Set(i*(spread+1)*pageSize+1, v)
	}
	pages := 0
	for _, pg := range tab.dir {
		if pg != nil {
			pages++
		}
	}
	if pages > 3*writes || len(tab.dir) > 2*(spread*3*writes+minSpan)/pageSize {
		t.Errorf("%d writes left %d pages and a directory of %d slots", 3*writes, pages, len(tab.dir))
	}
	if got := tab.Get(1 << 62); got != v {
		t.Errorf("Get(1<<62) = %v, want the value written", got)
	}
	if got := tab.Get(1<<62 + 1); got != nil {
		t.Errorf("Get(1<<62+1) = %v, want nothing", got)
	}
}

// TestExpectKeepsTreeXIDsInRange: the two walks that index a whole
// tree — the applier's pre-order walk, which meets a post-order-numbered
// document's root and document node first, with its two largest XIDs,
// and compose's post-order walk of a later version, whose inserted nodes
// carry fresh XIDs past every original one — leave the overflow empty
// once the table is told the node count, as their callers tell it. A
// table left to guess sends the first walk's first writes there.
func TestExpectKeepsTreeXIDsInRange(t *testing.T) {
	doc := dom.NewDocument()
	root := dom.NewElement("Catalog")
	doc.Append(root)
	for i := 0; i < 1200; i++ {
		p := dom.NewElement("Product")
		p.Append(dom.NewElement("Name").Append(dom.NewText("n")), dom.NewElement("Price").Append(dom.NewText("1")))
		root.Append(p)
	}
	Assign(doc)
	nodes := doc.Size()
	if nodes < 6000 {
		t.Fatalf("the tree has %d nodes, want 6 000 at least", nodes)
	}
	// A later version: every tenth product's name is inserted anew.
	next := int64(nodes) + 1
	later := doc.Clone()
	for i, p := range later.Root().Children {
		if i%10 == 0 {
			for _, n := range dom.Preorder(p.Children[0]) {
				n.XID, next = next, next+1
			}
		}
	}
	index := func(n *dom.Node, expect bool, walk func(*dom.Node, dom.Visit)) int {
		var tab Table[*dom.Node]
		if expect {
			tab.Expect(n.Size())
		}
		walk(n, func(x *dom.Node) bool {
			tab.Set(x.XID, x)
			return true
		})
		return len(tab.overflow)
	}
	if got := index(doc, true, dom.WalkPre); got != 0 {
		t.Errorf("a pre-order index of %d nodes overflows %d XIDs", nodes, got)
	}
	if got := index(later, true, dom.WalkPost); got != 0 {
		t.Errorf("a post-order index of the later version overflows %d XIDs", got)
	}
	if got := index(doc, false, dom.WalkPre); got == 0 {
		t.Errorf("a table left to guess kept the root's XID %d in range: the test shows nothing", doc.XID)
	}
}
