package delta

import (
	"testing"

	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

func TestResolveFindsTargetsOnBothSides(t *testing.T) {
	oldDoc, err := dom.ParseString(`<r><a>1</a><b/><c/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	xid.Assign(oldDoc) // post-order: text 1, a 2, b 3, c 4, r 5, document 6
	newDoc := oldDoc.Clone()
	root := newDoc.Root()
	root.RemoveAt(1) // b is deleted
	added := dom.NewElement("n")
	added.XID = 7
	root.Append(added)
	d := &Delta{Ops: []Op{
		{Kind: KindDelete, XID: 3, Parent: 5, Pos: 1},
		{Kind: KindInsert, XID: 7, Parent: 5, Pos: 2},
		{Kind: KindUpdate, XID: 1, Old: "1", New: "2"},
		{Kind: KindUpdateAttr, XID: 2, Name: "k"},
		{Kind: KindInsertAttr, XID: 2, Name: "j"}, // a second op on the same node
		{Kind: KindMove, XID: 99},                 // names no node at all
		{Kind: KindUpdate, XID: 0},                // the zero XID means "not assigned"
	}}
	got := Resolve(d, oldDoc, newDoc)
	if got.Delta != d || got.OldDoc != oldDoc || got.NewDoc != newDoc {
		t.Fatalf("Resolve did not keep its arguments")
	}
	name := func(n *dom.Node) string {
		switch {
		case n == nil:
			return "-"
		case n.Type == dom.Text:
			return "text"
		default:
			return n.Name
		}
	}
	want := [][2]string{{"b", "-"}, {"-", "n"}, {"text", "text"}, {"a", "a"}, {"a", "a"}, {"-", "-"}, {"-", "-"}}
	for i, w := range want {
		if o, n := name(got.Old[i]), name(got.New[i]); o != w[0] || n != w[1] {
			t.Errorf("op %d: resolved to (%s, %s), want (%s, %s)", i, o, n, w[0], w[1])
		}
	}
	if got.Old[3] == got.New[3] || got.Old[3] != got.Old[4] || got.New[3] != got.New[4] {
		t.Errorf("ops 3 and 4 share a target: each side must resolve to its own tree's node, once")
	}
}

func TestResolveToleratesMissingInputs(t *testing.T) {
	for _, d := range []*Delta{nil, {}} {
		if got := Resolve(d, nil, nil); len(got.Old) != 0 || len(got.New) != 0 {
			t.Errorf("Resolve of an empty delta = %+v", got)
		}
	}
	d := &Delta{Ops: []Op{{Kind: KindUpdate, XID: 1}}}
	if got := Resolve(d, nil, nil); got.Old[0] != nil || got.New[0] != nil {
		t.Errorf("Resolve against no documents found %v / %v", got.Old[0], got.New[0])
	}
}

// TestResolveAgreesWithFullIndex holds the filtered walk to a plain
// index of every node, on a document much larger than the delta and
// with XIDs on both sides of every filter word.
func TestResolveAgreesWithFullIndex(t *testing.T) {
	doc := dom.NewDocument()
	root := dom.NewElement("r")
	doc.Append(root)
	for i := 0; i < 5000; i++ {
		root.Append(dom.NewElement("e"))
	}
	xid.Assign(doc)
	index := make(map[int64]*dom.Node)
	dom.WalkPre(doc, func(n *dom.Node) bool {
		index[n.XID] = n
		return true
	})
	d := &Delta{}
	for x := int64(1); x < 9000; x += 37 {
		d.Ops = append(d.Ops, Op{Kind: KindUpdateAttr, XID: x, Name: "k"})
	}
	got := Resolve(d, doc, nil)
	for i, op := range d.Ops {
		if got.Old[i] != index[op.XID] || got.New[i] != nil {
			t.Fatalf("xid %d: resolved to %v, the index has %v", op.XID, got.Old[i], index[op.XID])
		}
	}
}
