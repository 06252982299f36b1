package delta

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"xydiff/internal/alloctest"
	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// buildCatalog returns the paper's running example with XIDs assigned
// in postfix order:
//
//	Title text=1 Title=2, Name text=3 Name=4, Price text=5 Price=6,
//	Product=7, Discount=8, Name text=9 Name=10, Price text=11 Price=12,
//	Product=13, NewProducts=14, Category=15, #document=16.

func mustInvert(t *testing.T, d *Delta) *Delta {
	t.Helper()
	inv, err := d.Invert()
	if err != nil {
		t.Fatalf("invert: %v", err)
	}
	return inv
}
func buildCatalog(t *testing.T) *dom.Node {
	t.Helper()
	doc, err := dom.ParseString(`<Category><Title>Digital Cameras</Title><Discount><Product><Name>tx123</Name><Price>$499</Price></Product></Discount><NewProducts><Product><Name>zy456</Name><Price>$799</Price></Product></NewProducts></Category>`)
	if err != nil {
		t.Fatal(err)
	}
	xid.Assign(doc)
	return doc
}

// paperDelta builds the delta from the paper's Section 4 example:
// delete product tx123, insert product abc, move product zy456 from
// NewProducts to Discount, update its price.
func paperDelta(t *testing.T) *Delta {
	t.Helper()
	delSub, err := dom.ParseString(`<Product><Name>tx123</Name><Price>$499</Price></Product>`)
	if err != nil {
		t.Fatal(err)
	}
	delMap, _ := xid.ParseMap("(3-7)")
	insSub, err := dom.ParseString(`<Product><Name>abc</Name><Price>$899</Price></Product>`)
	if err != nil {
		t.Fatal(err)
	}
	insMap, _ := xid.ParseMap("(17-21)")
	d := &Delta{Ops: []Op{
		{Kind: KindDelete, XID: 7, Parent: 8, Pos: 0, Subtree: withMap(delSub.Root(), delMap)},
		{Kind: KindInsert, XID: 21, Parent: 14, Pos: 0, Subtree: withMap(insSub.Root(), insMap)},
		{Kind: KindMove, XID: 13, Parent: 14, Pos: 0, ToParent: 8, ToPos: 0},
		{Kind: KindUpdate, XID: 11, Old: "$799", New: "$699"},
	}, NextXID: 22}
	return d.Normalize()
}

const wantNewCatalog = `<Category><Title>Digital Cameras</Title><Discount><Product><Name>zy456</Name><Price>$699</Price></Product></Discount><NewProducts><Product><Name>abc</Name><Price>$899</Price></Product></NewProducts></Category>`

func TestApplyPaperExample(t *testing.T) {
	doc := buildCatalog(t)
	d := paperDelta(t)
	if err := Apply(doc, d); err != nil {
		t.Fatal(err)
	}
	want, _ := dom.ParseString(wantNewCatalog)
	if !dom.Equal(doc, want) {
		t.Fatalf("apply result differs: %s\ngot:  %s", dom.Diagnose(doc, want), doc)
	}
	// The moved product kept its XIDs.
	moved := dom.FindByXID(doc, 13)
	if moved == nil || moved.Name != "Product" || moved.Parent.XID != 8 {
		t.Fatalf("moved product lost identity: %v", moved)
	}
	// The inserted product got the fresh XIDs from the map.
	ins := dom.FindByXID(doc, 21)
	if ins == nil || ins.Name != "Product" {
		t.Fatalf("inserted product missing: %v", ins)
	}
	if nameText := dom.FindByXID(doc, 17); nameText == nil || nameText.Value != "abc" {
		t.Fatalf("inserted text xid wrong: %v", nameText)
	}
}

func TestApplyCloneLeavesOriginal(t *testing.T) {
	doc := buildCatalog(t)
	before := doc.String()
	got, err := ApplyClone(doc, paperDelta(t))
	if err != nil {
		t.Fatal(err)
	}
	if doc.String() != before {
		t.Fatal("ApplyClone modified the original")
	}
	want, _ := dom.ParseString(wantNewCatalog)
	if !dom.Equal(got, want) {
		t.Fatalf("clone result differs: %s", dom.Diagnose(got, want))
	}
}

func TestInvertRoundTrip(t *testing.T) {
	doc := buildCatalog(t)
	original := doc.Clone()
	d := paperDelta(t)
	if err := Apply(doc, d); err != nil {
		t.Fatal(err)
	}
	if err := Apply(doc, mustInvert(t, d)); err != nil {
		t.Fatalf("apply inverse: %v", err)
	}
	if !dom.Equal(doc, original) {
		t.Fatalf("invert round trip differs: %s", dom.Diagnose(doc, original))
	}
	// XIDs must also be restored.
	for _, want := range []int64{7, 13, 11} {
		if dom.FindByXID(doc, want) == nil {
			t.Errorf("XID %d missing after round trip", want)
		}
	}
}

func TestXMLRoundTrip(t *testing.T) {
	d := paperDelta(t)
	text, err := d.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ParseString(string(text))
	if err != nil {
		t.Fatalf("parse serialized delta: %v\n%s", err, text)
	}
	if d2.NextXID != d.NextXID {
		t.Errorf("NextXID = %d, want %d", d2.NextXID, d.NextXID)
	}
	if got, want := d2.Count(), d.Count(); got != want {
		t.Fatalf("counts after round trip %v, want %v", got, want)
	}
	// The re-parsed delta must behave identically.
	doc := buildCatalog(t)
	if err := Apply(doc, d2); err != nil {
		t.Fatal(err)
	}
	want, _ := dom.ParseString(wantNewCatalog)
	if !dom.Equal(doc, want) {
		t.Fatalf("re-parsed delta apply differs: %s", dom.Diagnose(doc, want))
	}
	text2, _ := d2.MarshalText()
	if string(text) != string(text2) {
		t.Fatalf("serialization not stable:\n%s\nvs\n%s", text, text2)
	}
}

func TestDeltaSizeAndCounts(t *testing.T) {
	d := paperDelta(t)
	c := d.Count()
	if c.Inserts != 1 || c.Deletes != 1 || c.Updates != 1 || c.Moves != 1 || c.AttrOps != 0 {
		t.Errorf("counts = %+v", c)
	}
	if c.Total() != 4 {
		t.Errorf("total = %d", c.Total())
	}
	if d.Size() <= 0 {
		t.Error("Size should be positive")
	}
	if !strings.Contains(c.String(), "1 ins") {
		t.Errorf("Counts.String = %q", c)
	}
	var empty *Delta
	if !empty.Empty() || !(&Delta{}).Empty() {
		t.Error("Empty misbehaves")
	}
	if (&Delta{Ops: []Op{{Kind: KindUpdate}}}).Empty() {
		t.Error("non-empty delta reported empty")
	}
}

func TestAttributeOps(t *testing.T) {
	doc, _ := dom.ParseString(`<a x="1"><b y="2"/></a>`)
	xid.Assign(doc) // b=1 a=2 doc=3
	d := &Delta{Ops: []Op{
		{Kind: KindInsertAttr, XID: 1, Name: "z", New: "3"},
		{Kind: KindUpdateAttr, XID: 1, Name: "y", Old: "2", New: "22"},
		{Kind: KindDeleteAttr, XID: 2, Name: "x", Old: "1"},
	}}
	original := doc.Clone()
	if err := Apply(doc, d); err != nil {
		t.Fatal(err)
	}
	b := dom.FindByXID(doc, 1)
	if v, _ := b.Attribute("z"); v != "3" {
		t.Errorf("insert-attribute failed: %v", b.Attrs)
	}
	if v, _ := b.Attribute("y"); v != "22" {
		t.Errorf("update-attribute failed: %v", b.Attrs)
	}
	if _, ok := dom.FindByXID(doc, 2).Attribute("x"); ok {
		t.Error("delete-attribute failed")
	}
	if err := Apply(doc, mustInvert(t, d)); err != nil {
		t.Fatal(err)
	}
	if !dom.Equal(doc, original) {
		t.Fatalf("attr invert round trip: %s", dom.Diagnose(doc, original))
	}
}

func TestMoveIntoInsertedSubtree(t *testing.T) {
	doc, _ := dom.ParseString(`<r><keep/><mv/></r>`)
	xid.Assign(doc) // keep=1 mv=2 r=3 doc=4
	wrap, _ := dom.ParseString(`<wrap/>`)
	m, _ := xid.ParseMap("(5)")
	d := &Delta{Ops: []Op{
		{Kind: KindInsert, XID: 5, Parent: 3, Pos: 1, Subtree: withMap(wrap.Root(), m)},
		{Kind: KindMove, XID: 2, Parent: 3, Pos: 1, ToParent: 5, ToPos: 0},
	}}
	if err := Apply(doc, d); err != nil {
		t.Fatal(err)
	}
	want, _ := dom.ParseString(`<r><keep/><wrap><mv/></wrap></r>`)
	if !dom.Equal(doc, want) {
		t.Fatalf("nested attach differs: %s\ngot %s", dom.Diagnose(doc, want), doc)
	}
	// And back.
	orig, _ := dom.ParseString(`<r><keep/><mv/></r>`)
	if err := Apply(doc, mustInvert(t, d)); err != nil {
		t.Fatal(err)
	}
	if !dom.Equal(doc, orig) {
		t.Fatalf("nested invert differs: %s", dom.Diagnose(doc, orig))
	}
}

func TestMoveOutOfDeletedSubtree(t *testing.T) {
	doc, _ := dom.ParseString(`<r><del><survivor/></del><anchor/></r>`)
	xid.Assign(doc) // survivor=1 del=2 anchor=3 r=4 doc=5
	// The delete's recorded content excludes the moved-out survivor.
	prunedDel, _ := dom.ParseString(`<del/>`)
	m, _ := xid.ParseMap("(2)")
	d := &Delta{Ops: []Op{
		{Kind: KindMove, XID: 1, Parent: 2, Pos: 0, ToParent: 4, ToPos: 0},
		{Kind: KindDelete, XID: 2, Parent: 4, Pos: 0, Subtree: withMap(prunedDel.Root(), m)},
	}}
	if err := Apply(doc, d); err != nil {
		t.Fatal(err)
	}
	want, _ := dom.ParseString(`<r><survivor/><anchor/></r>`)
	if !dom.Equal(doc, want) {
		t.Fatalf("got %s", doc)
	}
	orig, _ := dom.ParseString(`<r><del><survivor/></del><anchor/></r>`)
	if err := Apply(doc, mustInvert(t, d)); err != nil {
		t.Fatal(err)
	}
	if !dom.Equal(doc, orig) {
		t.Fatalf("invert differs: %s", dom.Diagnose(doc, orig))
	}
}

func TestWithinParentPermutationMoves(t *testing.T) {
	doc, _ := dom.ParseString(`<r><a/><b/><c/><d/></r>`)
	xid.Assign(doc) // a=1 b=2 c=3 d=4 r=5
	// New order: b c d a — one move suffices (a to the end).
	d := &Delta{Ops: []Op{
		{Kind: KindMove, XID: 1, Parent: 5, Pos: 0, ToParent: 5, ToPos: 3},
	}}
	if err := Apply(doc, d); err != nil {
		t.Fatal(err)
	}
	want, _ := dom.ParseString(`<r><b/><c/><d/><a/></r>`)
	if !dom.Equal(doc, want) {
		t.Fatalf("got %s", doc)
	}
}

func TestApplyErrors(t *testing.T) {
	sub, _ := dom.ParseString(`<x/>`)
	m1, _ := xid.ParseMap("(9)")
	cases := []struct {
		name string
		d    *Delta
	}{
		{"update missing node", &Delta{Ops: []Op{{Kind: KindUpdate, XID: 99, Old: "a", New: "b"}}}},
		{"update wrong old", &Delta{Ops: []Op{{Kind: KindUpdate, XID: 1, Old: "WRONG", New: "b"}}}},
		{"move missing node", &Delta{Ops: []Op{{Kind: KindMove, XID: 99}}}},
		{"move wrong parent", &Delta{Ops: []Op{{Kind: KindMove, XID: 2, Parent: 99, ToParent: 16, ToPos: 0}}}},
		{"delete missing node", &Delta{Ops: []Op{{Kind: KindDelete, XID: 99, Parent: 8, Subtree: sub.Root()}}}},
		{"delete wrong parent", &Delta{Ops: []Op{{Kind: KindDelete, XID: 7, Parent: 99, Subtree: sub.Root()}}}},
		{"delete wrong content", &Delta{Ops: []Op{{Kind: KindDelete, XID: 7, Parent: 8, Pos: 0, Subtree: sub.Root()}}}},
		{"insert unknown parent", &Delta{Ops: []Op{{Kind: KindInsert, XID: 9, Parent: 999, Pos: 0, Subtree: withMap(sub.Root(), m1)}}}},
		{"insert bad position", &Delta{Ops: []Op{{Kind: KindInsert, XID: 9, Parent: 8, Pos: 5, Subtree: withMap(sub.Root(), m1)}}}},
		{"insert nil subtree", &Delta{Ops: []Op{{Kind: KindInsert, XID: 9, Parent: 8, Pos: 0}}}},
		{"attr insert dup", &Delta{Ops: []Op{{Kind: KindInsertAttr, XID: 15, Name: "x"}, {Kind: KindInsertAttr, XID: 15, Name: "x"}}}},
		{"attr delete missing", &Delta{Ops: []Op{{Kind: KindDeleteAttr, XID: 15, Name: "nope"}}}},
		{"attr update missing", &Delta{Ops: []Op{{Kind: KindUpdateAttr, XID: 15, Name: "nope"}}}},
		// XIDs outside the table's pages: zero, negative, far beyond
		// the document.
		{"update XID 0", &Delta{Ops: []Op{{Kind: KindUpdate, XID: 0, Old: "a", New: "b"}}}},
		{"move XID 0", &Delta{Ops: []Op{{Kind: KindMove, XID: 0, Parent: 16, ToParent: 16}}}},
		{"insert under XID 0", &Delta{Ops: []Op{{Kind: KindInsert, XID: 9, Parent: 0, Pos: 0, Subtree: withMap(sub.Root(), m1)}}}},
		{"update negative XID", &Delta{Ops: []Op{{Kind: KindUpdate, XID: -1, Old: "a", New: "b"}}}},
		{"delete negative XID", &Delta{Ops: []Op{{Kind: KindDelete, XID: -7, Parent: 8, Subtree: sub.Root()}}}},
		{"insert under negative XID", &Delta{Ops: []Op{{Kind: KindInsert, XID: 9, Parent: -8, Pos: 0, Subtree: withMap(sub.Root(), m1)}}}},
		{"attr insert XID 1<<62", &Delta{Ops: []Op{{Kind: KindInsertAttr, XID: 1 << 62, Name: "x"}}}},
		{"move under XID 1<<62", &Delta{Ops: []Op{{Kind: KindMove, XID: 2, Parent: 3, ToParent: 1 << 62}}}},
		{"insert under XID 1<<62", &Delta{Ops: []Op{{Kind: KindInsert, XID: 9, Parent: 1 << 62, Pos: 0, Subtree: withMap(sub.Root(), m1)}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			doc := buildCatalog(t)
			err := Apply(doc, c.d)
			if err == nil {
				t.Fatalf("Apply succeeded, want error")
			}
			// The map-indexed engine gives the same verdict, word for word.
			if want := ApplyReference(buildCatalog(t), c.d); want == nil || err.Error() != want.Error() {
				t.Errorf("Apply: %v\nthe map-indexed engine: %v", err, want)
			}
		})
	}
}

// TestApplyFarXIDs attaches below nodes whose XIDs lie outside the
// table's pages — one inserted with XID 1<<62, one with a negative XID
// a caller built by hand — and detaches them again, forward and
// backward, with the result the map-indexed engine gives.
func TestApplyFarXIDs(t *testing.T) {
	for _, far := range []int64{1 << 62, -5} {
		outer, _ := dom.ParseString(`<far/>`)
		inner, _ := dom.ParseString(`<x/>`)
		d := func() *Delta {
			leaf := dom.NewElement("far")
			leaf.XID = far
			m1 := xid.Of(leaf)
			return &Delta{Ops: []Op{
				{Kind: KindInsert, XID: 30, Parent: far, Pos: 0, Subtree: withMap(inner.Root().Clone(), xid.Of(inner.Root()))},
				{Kind: KindInsert, XID: far, Parent: 15, Pos: 0, Subtree: withMap(outer.Root().Clone(), m1)},
				{Kind: KindMove, XID: 2, Parent: 15, Pos: 0, ToParent: far, ToPos: 1},
				{Kind: KindUpdate, XID: 11, Old: "$799", New: "$1"},
			}}
		}
		inner.Root().XID = 30
		got, want := buildCatalog(t), buildCatalog(t)
		err, refErr := Apply(got, d()), ApplyReference(want, d())
		if err != nil || refErr != nil || !sameWithXIDs(got, want) {
			t.Fatalf("XID %d forward: %v, %s\nthe map-indexed engine: %v, %s", far, err, got, refErr, want)
		}
		err, refErr = NewReplay(got).Step(d(), true, nil), ReplayReference(want, []*Delta{d()}, true)
		if err != nil || refErr != nil || !sameWithXIDs(got, want) || !sameWithXIDs(got, buildCatalog(t)) {
			t.Fatalf("XID %d backward: %v, %s\nthe map-indexed engine: %v, %s", far, err, got, refErr, want)
		}
	}
}

// sameWithXIDs reports whether two trees are equal and every node pair
// carries the same XID.
func sameWithXIDs(a, b *dom.Node) bool {
	if !dom.Equal(a, b) {
		return false
	}
	var xa, xb []int64
	dom.WalkPre(a, func(n *dom.Node) bool { xa = append(xa, n.XID); return true })
	dom.WalkPre(b, func(n *dom.Node) bool { xb = append(xb, n.XID); return true })
	return slices.Equal(xa, xb)
}

func TestUpdateTextNodeValue(t *testing.T) {
	// XID 1 is the Title text node "Digital Cameras".
	doc := buildCatalog(t)
	d := &Delta{Ops: []Op{{Kind: KindUpdate, XID: 1, Old: "Digital Cameras", New: "Analog Cameras"}}}
	if err := Apply(doc, d); err != nil {
		t.Fatal(err)
	}
	if got := dom.FindByXID(doc, 1).Value; got != "Analog Cameras" {
		t.Errorf("updated value = %q", got)
	}
}

// TestValidate: the checks an xidmap gets where it lives now, at
// decode. A map as long as its subtree and ending at the op's XID is
// stamped onto it; one too short, or with another root, is refused.
func TestValidate(t *testing.T) {
	op := func(xidmap string) string {
		return `<delta><insert parent="1" pos="1" xid="7" xidmap="` + xidmap + `"><x><y/></x></insert></delta>`
	}
	d, err := ParseString(op("(4;7)"))
	if err != nil {
		t.Fatalf("valid delta rejected: %v", err)
	}
	if sub := d.Ops[0].Subtree; sub.XID != 7 || sub.Children[0].XID != 4 {
		t.Errorf("decoded subtree carries XIDs %d and %d, want 7 and 4", sub.XID, sub.Children[0].XID)
	}
	if _, err := ParseString(op("(7)")); err == nil {
		t.Error("short xidmap accepted")
	}
	if _, err := ParseString(op("(7;9)")); err == nil {
		t.Error("wrong-root xidmap accepted")
	}
	if _, err := ParseString(`<delta><move from-parent="1" from-pos="0" to-parent="1" to-pos="1" xid="2"/></delta>`); err == nil {
		t.Error("position 0 accepted")
	}
	if _, err := ParseString(`<delta><delete parent="1" pos="1" xid="1" xidmap="(1)"/></delta>`); err == nil {
		t.Error("delete without its subtree accepted")
	}
}

// TestInsertNeedsItsXIDs: a hand-built insert carries its XIDs on its
// subtree's nodes. One whose subtree holds a node without an XID, or an
// XID twice, or one the document already has, fails Apply and Replay,
// forward and backward, with an error naming the op, and attaches
// nothing — the map-indexed engine agrees word for word.
func TestInsertNeedsItsXIDs(t *testing.T) {
	sub := func(xids ...int64) *dom.Node {
		x := dom.NewElement("x")
		y := dom.NewElement("y")
		x.Append(y)
		y.XID, x.XID = xids[0], xids[1]
		return x
	}
	for _, c := range []struct {
		name string
		sub  *dom.Node
		want string
	}{
		{"node without an XID", sub(0, 30), "delta: insert 30: a element node without an XID"},
		{"XID repeated", sub(30, 30), "delta: insert 30: XID 30 repeated"},
		{"XID the document has", sub(7, 30), "delta: insert 30: XID 7 repeated"},
	} {
		t.Run(c.name, func(t *testing.T) {
			ins := Op{Kind: KindInsert, XID: 30, Parent: 14, Pos: 0, Subtree: c.sub}
			ok := Op{Kind: KindInsert, XID: 41, Parent: 8, Pos: 0, Subtree: sub(40, 41)}
			d := &Delta{Ops: []Op{ok, ins}}
			inv := mustInvert(t, &Delta{Ops: []Op{ok, ins}})
			for _, step := range []struct {
				how string
				run func(doc *dom.Node) error
				ref func(doc *dom.Node) error
			}{
				{"Apply", func(doc *dom.Node) error { return Apply(doc, d) }, func(doc *dom.Node) error { return ApplyReference(doc, d) }},
				{"Replay.Forward", func(doc *dom.Node) error { return NewReplay(doc).Step(d, false, nil) },
					func(doc *dom.Node) error { return ReplayReference(doc, []*Delta{d}, false) }},
				{"Replay.Backward", func(doc *dom.Node) error { return NewReplay(doc).Step(inv, true, nil) },
					func(doc *dom.Node) error { return ReplayReference(doc, []*Delta{inv}, true) }},
			} {
				doc := buildCatalog(t)
				before := doc.String()
				err := step.run(doc)
				if err == nil || err.Error() != c.want {
					t.Fatalf("%s: %v, want %q", step.how, err, c.want)
				}
				if doc.String() != before {
					t.Errorf("%s attached something before failing:\n%s", step.how, doc)
				}
				if refErr := step.ref(buildCatalog(t)); refErr == nil || refErr.Error() != err.Error() {
					t.Errorf("%s: %v\nthe map-indexed engine: %v", step.how, err, refErr)
				}
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`<notdelta/>`,
		`<delta><unknown-op xid="1"/></delta>`,
		`<delta><move xid="1" from-parent="2" from-pos="0" to-parent="3" to-pos="1"/></delta>`, // pos 0 is invalid (1-based)
		`<delta><update xid="1"/></delta>`,
		`<delta><insert xid="2" xidmap="(2)" parent="1" pos="1"/></delta>`,               // no content
		`<delta><insert xid="2" xidmap="(2-3)" parent="1" pos="1"><x/></insert></delta>`, // map/size mismatch
		`<delta><insert xid="2" parent="1" pos="1"><x/></insert></delta>`,                // missing map
		`<delta><move xid="1"/></delta>`,
		`<delta nextxid="zap"/>`,
		`<delta><insert-attribute xid="1" value="v"/></delta>`,
		`<delta><delete-attribute xid="1"/></delta>`,
		`<delta><update-attribute xid="1"/></delta>`,
		`<delta><update xid="x"><old/><new/></update></delta>`,
	}
	for _, s := range cases {
		if _, err := ParseString(s); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", s)
		}
	}
}

func TestParseEmptyDelta(t *testing.T) {
	d, err := ParseString(`<delta/>`)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Error("parsed <delta/> not empty")
	}
}

func TestUpdateWithEmptyAndWhitespaceValues(t *testing.T) {
	doc, _ := dom.ParseString(`<a>x</a>`)
	xid.Assign(doc) // text=1 a=2 doc=3
	d := &Delta{Ops: []Op{{Kind: KindUpdate, XID: 1, Old: "x", New: " "}}}
	text, _ := d.MarshalText()
	d2, err := ParseString(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(doc, d2); err != nil {
		t.Fatal(err)
	}
	if got := dom.FindByXID(doc, 1).Value; got != " " {
		t.Errorf("whitespace value lost through XML: %q", got)
	}
	// And empty string new value.
	d3 := &Delta{Ops: []Op{{Kind: KindUpdate, XID: 1, Old: " ", New: ""}}}
	text3, _ := d3.MarshalText()
	d4, err := ParseString(string(text3))
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(doc, d4); err != nil {
		t.Fatal(err)
	}
	if got := dom.FindByXID(doc, 1).Value; got != "" {
		t.Errorf("empty value lost through XML: %q", got)
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{KindInsert, KindDelete, KindUpdate, KindMove, KindInsertAttr, KindDeleteAttr, KindUpdateAttr}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("Kind %d has bad/dup name %q", k, s)
		}
		seen[s] = true
	}
	if !strings.HasPrefix(Kind(99).String(), "kind(") {
		t.Error("unknown kind String")
	}
}

func TestOpTargetXIDs(t *testing.T) {
	for _, d := range paperDelta(t).Ops {
		if d.XID == 0 {
			t.Errorf("op %v has zero target XID", d.Kind)
		}
	}
}

// TestParseDetachesSubtrees pins that decoding builds the subtrees of
// inserts and deletes once, as free-standing trees carrying their
// xidmap's XIDs, and nothing else. On a golden delta each op's subtree
// has no parent and its XIDs in post-order are its map's; and on a
// delta whose two subtrees hold 201 nodes each, what ParseBytes
// allocates beyond dom.ParseBytes of the same bytes stays below one
// allocation per subtree node, which a copy costs at the least.
func TestParseDetachesSubtrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "attributes.delta.xml"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	subtrees := 0
	for i, op := range d.Ops {
		if op.Kind != KindInsert && op.Kind != KindDelete {
			continue
		}
		subtrees++
		if op.Subtree.Parent != nil {
			t.Errorf("op %d (%v): subtree has a parent", i, op.Kind)
		}
		if got := string(xid.AppendOf(nil, op.Subtree)); !strings.Contains(string(raw), `xid="`+strconv.FormatInt(op.XID, 10)+`" xidmap="`+got+`"`) {
			t.Errorf("op %d (%v): subtree XIDs %s are not its xidmap", i, op.Kind, got)
		}
	}
	if len(d.Ops) != 4 || subtrees != 4 {
		t.Fatalf("golden delta has %d ops over %d subtrees, want 4 and 4", len(d.Ops), subtrees)
	}
	if got := checkEncoding(t, d); string(got)+"\n" != string(raw) {
		t.Errorf("decoded delta encodes differently:\n%s\n%s", got, raw)
	}

	var list strings.Builder
	list.WriteString("<list>")
	for i := 0; i < 100; i++ {
		list.WriteString(`<item k="v">text</item>`)
	}
	list.WriteString("</list>")
	subtree := func() *dom.Node {
		sub, err := dom.ParseString(list.String())
		if err != nil {
			t.Fatal(err)
		}
		return sub.Root()
	}
	delMap, _ := xid.ParseMap("(1-201)")
	insMap, _ := xid.ParseMap("(301-501)")
	big := &Delta{Ops: []Op{
		{Kind: KindDelete, XID: 201, Parent: 202, Pos: 0, Subtree: withMap(subtree(), delMap)},
		{Kind: KindInsert, XID: 501, Parent: 202, Pos: 0, Subtree: withMap(subtree(), insMap)},
	}, NextXID: 502}
	text, err := big.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	decode, _ := alloctest.Cost(t, 20, func() {
		if _, err := ParseBytes(text); err != nil {
			t.Fatal(err)
		}
	})
	parse, _ := alloctest.Cost(t, 20, func() {
		if _, err := dom.ParseBytes(text, parseOptions()); err != nil {
			t.Fatal(err)
		}
	})
	if nodes := 2 * 201.0; decode-parse >= nodes {
		t.Errorf("decoding allocates %.0f times on top of the parse's %.0f: the %.0f subtree nodes are copied", decode-parse, parse, nodes)
	}
}

// sortReference is Delta.sort before it moved to slices.SortStableFunc.
func sortReference(d *Delta) {
	rank := func(k Kind) int {
		switch k {
		case KindDelete:
			return 0
		case KindInsert:
			return 1
		case KindMove:
			return 2
		case KindUpdate:
			return 3
		default:
			return 4
		}
	}
	sort.SliceStable(d.Ops, func(i, j int) bool {
		ri, rj := rank(d.Ops[i].Kind), rank(d.Ops[j].Kind)
		if ri != rj {
			return ri < rj
		}
		return d.Ops[i].XID < d.Ops[j].XID
	})
}

// TestSortMatchesReference: the canonical order is the same
// permutation as before on shuffled ops whose keys tie — every kind on
// a handful of XIDs, each op told apart by a serial number — so ties
// keep their input order in both.
func TestSortMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for round := 0; round < 200; round++ {
		var ops []Op
		for i, n := 0, r.Intn(40); i < n; i++ {
			x, serial := int64(r.Intn(4)), strconv.Itoa(i)
			ops = append(ops, []Op{
				{Kind: KindInsert, XID: x, Pos: int32(i)}, {Kind: KindDelete, XID: x, Pos: int32(i)}, {Kind: KindUpdate, XID: x, Old: serial},
				{Kind: KindMove, XID: x, Pos: int32(i)}, {Kind: KindInsertAttr, XID: x, Name: serial},
				{Kind: KindDeleteAttr, XID: x, Name: serial}, {Kind: KindUpdateAttr, XID: x, Name: serial},
			}[r.Intn(7)])
		}
		got, want := &Delta{Ops: slices.Clone(ops)}, &Delta{Ops: slices.Clone(ops)}
		got.Normalize()
		sortReference(want)
		if !reflect.DeepEqual(got.Ops, want.Ops) {
			t.Fatalf("round %d: order differs\n got: %v\nwant: %v", round, got.Ops, want.Ops)
		}
	}
}

// TestReplayMatchesApply: a Replay step forward is Apply, a step
// backward is Apply of the inverse — on the paper's example and the
// attribute and move cases above, one Replay through the chain there
// and back — and it fails where Apply fails.
func TestReplayMatchesApply(t *testing.T) {
	type step struct {
		doc func() *dom.Node
		d   func() *Delta
	}
	parse := func(s string) func() *dom.Node {
		return func() *dom.Node {
			doc, err := dom.ParseString(s)
			if err != nil {
				t.Fatal(err)
			}
			xid.Assign(doc)
			return doc
		}
	}
	cases := []step{
		{func() *dom.Node { return buildCatalog(t) }, func() *Delta { return paperDelta(t) }},
		{parse(`<a x="1"><b y="2"/></a>`), func() *Delta {
			return &Delta{Ops: []Op{
				{Kind: KindInsertAttr, XID: 1, Name: "z", New: "3"},
				{Kind: KindUpdateAttr, XID: 1, Name: "y", Old: "2", New: "22"},
				{Kind: KindDeleteAttr, XID: 2, Name: "x", Old: "1"},
			}}
		}},
		{parse(`<r><keep/><mv/></r>`), func() *Delta {
			wrap, _ := dom.ParseString(`<wrap/>`)
			m, _ := xid.ParseMap("(5)")
			return &Delta{Ops: []Op{
				{Kind: KindInsert, XID: 5, Parent: 3, Pos: 1, Subtree: withMap(wrap.Root(), m)},
				{Kind: KindMove, XID: 2, Parent: 3, Pos: 1, ToParent: 5, ToPos: 0},
			}}
		}},
	}
	for i, c := range cases {
		want := c.doc()
		if err := Apply(want, c.d()); err != nil {
			t.Fatal(err)
		}
		doc := c.doc()
		r := NewReplay(doc)
		if err := r.Step(c.d(), false, nil); err != nil {
			t.Fatalf("case %d forward: %v", i, err)
		}
		if doc.String() != want.String() || xid.Of(doc).String() != xid.Of(want).String() {
			t.Fatalf("case %d forward: %s, Apply gives %s", i, doc, want)
		}
		if err := Apply(want, mustInvert(t, c.d())); err != nil {
			t.Fatal(err)
		}
		if err := r.Step(c.d(), true, nil); err != nil {
			t.Fatalf("case %d backward: %v", i, err)
		}
		if orig := c.doc(); doc.String() != orig.String() || xid.Of(doc).String() != xid.Of(want).String() {
			t.Fatalf("case %d backward: %s, want %s", i, doc, orig)
		}
	}
	sub, _ := dom.ParseString(`<x/>`)
	for _, d := range []*Delta{
		{Ops: []Op{{Kind: KindUpdate, XID: 1, Old: "WRONG", New: "b"}}},
		{Ops: []Op{{Kind: KindDelete, XID: 7, Parent: 8, Pos: 0, Subtree: sub.Root()}}},
		{Ops: []Op{{Kind: KindMove, XID: 2, Parent: 99, ToParent: 16, ToPos: 0}}},
	} {
		if err := NewReplay(buildCatalog(t)).Step(d, false, nil); err == nil {
			t.Errorf("Forward(%v) succeeded where Apply fails", d.Ops)
		}
		if err := NewReplay(buildCatalog(t)).Step(mustInvert(t, d), true, nil); err == nil {
			t.Errorf("Backward of the inverse of %v succeeded where Apply fails", d.Ops)
		}
	}
}

// TestParseRefusesAnXIDMapLongerThanItsSubtree: an xidmap is counted
// against its subtree, not expanded first. Expanding "(0-9223372036854775807)"
// asked for a negative-length slice, and decoding the delta panicked.
func TestParseRefusesAnXIDMapLongerThanItsSubtree(t *testing.T) {
	for _, m := range []string{"(0-9223372036854775807)", "(1-99999999999)", "(1-2)"} {
		src := `<delta><insert parent="1" pos="1" xid="5" xidmap="` + m + `"><a/></insert></delta>`
		if _, err := ParseString(src); err == nil {
			t.Errorf("xidmap %s accepted for one node", m)
		}
	}
}

// withMap stamps the XID map m onto sub in post-order, as decoding an
// insert or a delete does, and returns sub.
func withMap(sub *dom.Node, m xid.Map) *dom.Node {
	if err := m.ApplyTo(sub); err != nil {
		panic(err)
	}
	return sub
}
