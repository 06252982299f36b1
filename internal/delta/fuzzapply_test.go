package delta_test

// FuzzApply lives outside package delta so it can use the diff package
// to generate realistic delta seeds without an import cycle.

import (
	"fmt"
	"strings"
	"testing"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// FuzzApply: applying an arbitrary (possibly hostile) delta document to
// a document must either succeed or return an error — never panic and
// never corrupt the tree into something that cannot serialize. This is
// the hardened path the server walks when replaying journals or serving
// patch requests over untrusted data. Forward through Apply and
// backward through a Replay, the engine must also give the verdict the
// map-indexed engine it replaced gives: the same error text, or the
// same tree with the same XIDs.
func FuzzApply(f *testing.F) {
	const baseXML = `<Catalog><Product><Name>tx123</Name><Price>$300</Price></Product>` +
		`<Product><Name>zy456</Name></Product></Catalog>`

	// Realistic seeds: genuine deltas produced by the diff between the
	// base and a few edits of it.
	variants := []string{
		`<Catalog><Product><Name>tx123</Name><Price>$450</Price></Product></Catalog>`,
		`<Catalog><Product><Name>zy456</Name></Product><Product><Name>tx123</Name><Price>$300</Price></Product></Catalog>`,
		`<Catalog><Product keep="y"><Name>tx123</Name></Product><New/></Catalog>`,
	}
	for _, v := range variants {
		oldDoc, err := dom.ParseString(baseXML)
		if err != nil {
			f.Fatal(err)
		}
		xid.Assign(oldDoc)
		newDoc, err := dom.ParseString(v)
		if err != nil {
			f.Fatal(err)
		}
		d, err := diff.Diff(oldDoc, newDoc, diff.Options{})
		if err != nil {
			f.Fatal(err)
		}
		text, err := d.MarshalText()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text))
	}
	// Hostile seeds: structurally plausible but wrong or out of range.
	for _, s := range []string{
		`<delta><insert parent="999" pos="0" xid="50" xidmap="(50)"><e/></insert></delta>`,
		`<delta><delete parent="1" pos="40" xid="2" xidmap="(2)"><x/></delete></delta>`,
		`<delta><move from-parent="1" from-pos="0" to-parent="1" to-pos="99" xid="1"/></delta>`,
		`<delta><update xid="7"><old>nope</old><new>yep</new></update></delta>`,
		`<delta><insert parent="3" pos="-1" xid="50" xidmap="(50)"><e/></insert></delta>`,
		`<delta><insert-attribute name="a" value="v" xid="3"/><delete-attribute name="a" value="v" xid="3"/></delta>`,
		// XIDs outside the XID table's pages: zero, negative, and 1<<62
		// (inserted, then attached below and moved into).
		`<delta><update xid="0"><old>tx123</old><new>x</new></update></delta>`,
		`<delta><insert parent="0" pos="1" xid="50" xidmap="(50)"><e/></insert></delta>`,
		`<delta><move from-parent="-3" from-pos="1" to-parent="9" to-pos="1" xid="-2"/></delta>`,
		`<delta><delete parent="9" pos="1" xid="0" xidmap="(0)"><e/></delete></delta>`,
		`<delta><insert parent="9" pos="1" xid="4611686018427387904" xidmap="(4611686018427387904)"><far/></insert>` +
			`<insert parent="4611686018427387904" pos="1" xid="60" xidmap="(60)"><e/></insert>` +
			`<move from-parent="5" from-pos="1" to-parent="4611686018427387904" to-pos="2" xid="2"/></delta>`,
	} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, deltaXML string) {
		d, err := delta.Parse(strings.NewReader(deltaXML))
		if err != nil {
			return // not a delta document; nothing to apply
		}
		base := func() *dom.Node {
			doc, err := dom.ParseString(baseXML)
			if err != nil {
				t.Fatal(err)
			}
			xid.Assign(doc)
			return doc
		}
		doc := base()
		patched, err := delta.ApplyClone(doc, d)
		ref := base()
		sameVerdict(t, "Apply", err, patched, delta.ApplyReference(ref, d), ref)
		if err == nil {
			// A delta the engine accepted must leave a serializable tree.
			if s := patched.String(); s == "" && len(patched.Children) > 0 {
				t.Fatalf("accepted delta produced unserializable tree")
			}
		}
		// A Replay consumes its deltas: each engine gets its own parse.
		fresh := func() *delta.Delta {
			d, err := delta.Parse(strings.NewReader(deltaXML))
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		got, want := base(), base()
		err = delta.NewReplay(got).Step(fresh(), true, nil)
		sameVerdict(t, "Replay.Backward", err, got, delta.ReplayReference(want, []*delta.Delta{fresh()}, true), want)
	})
}

// sameVerdict fails t unless the engine and the map-indexed one agree:
// both fail with the same text, or both succeed with the same tree and
// the same XIDs.
func sameVerdict(t *testing.T, what string, err error, got *dom.Node, refErr error, want *dom.Node) {
	t.Helper()
	if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("%s: %v\nthe map-indexed engine: %v", what, err, refErr)
	}
	if err == nil && withXIDs(got) != withXIDs(want) {
		t.Fatalf("%s: %s\nthe map-indexed engine: %s", what, withXIDs(got), withXIDs(want))
	}
}

// withXIDs renders a tree with every node's XID.
func withXIDs(doc *dom.Node) string {
	var b strings.Builder
	dom.WalkPre(doc, func(n *dom.Node) bool {
		fmt.Fprintf(&b, "%d:%d %q %q %v|", n.XID, n.Type, n.Name, n.Value, n.SortedAttrs())
		if n.Parent != nil {
			fmt.Fprintf(&b, "^%d;", n.Parent.XID)
		}
		return true
	})
	return b.String()
}
