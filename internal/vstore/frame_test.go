package vstore

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/dom"
	"xydiff/internal/xid"
	"xydiff/internal/xptest"
)

// exactTree reports the first field in which a and b differ, Parent
// pointers included: each child of a must point back at a, each child
// of b at b. An empty slice and a nil one count as the same.
func exactTree(a, b *dom.Node) error {
	if (a.Parent == nil) != (b.Parent == nil) {
		return fmt.Errorf("%s: one root has a parent", a.Path())
	}
	return exactSubtree(a, b)
}

func exactSubtree(a, b *dom.Node) error {
	if a.Type != b.Type || a.Name != b.Name || a.Value != b.Value || a.Doctype != b.Doctype || a.XID != b.XID {
		return fmt.Errorf("%s: %v %q %q %q %d, want %v %q %q %q %d", a.Path(),
			b.Type, b.Name, b.Value, b.Doctype, b.XID, a.Type, a.Name, a.Value, a.Doctype, a.XID)
	}
	if len(a.Attrs) != len(b.Attrs) {
		return fmt.Errorf("%s: %d attributes, want %d", a.Path(), len(b.Attrs), len(a.Attrs))
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return fmt.Errorf("%s: attribute %d is %q, want %q", a.Path(), i, b.Attrs[i], a.Attrs[i])
		}
	}
	if len(a.Children) != len(b.Children) {
		return fmt.Errorf("%s: %d children, want %d", a.Path(), len(b.Children), len(a.Children))
	}
	for i := range a.Children {
		if a.Children[i].Parent != a || b.Children[i].Parent != b {
			return fmt.Errorf("%s: child %d does not point back at its parent", a.Path(), i)
		}
		if err := exactSubtree(a.Children[i], b.Children[i]); err != nil {
			return err
		}
	}
	return nil
}

// roundTrip freezes doc, thaws the frame and fails unless the tree that
// comes back is doc in every field.
func roundTrip(t *testing.T, doc *dom.Node) []byte {
	t.Helper()
	frame, ok := freeze(doc)
	if !ok {
		t.Fatal("freeze refused the tree")
	}
	got, err := thaw(frame)
	if err != nil {
		t.Fatal(err)
	}
	if err := exactTree(doc, got); err != nil {
		t.Fatal(err)
	}
	return frame
}

// withChildren sets n's children and their Parent pointers.
func withChildren(n *dom.Node, kids ...*dom.Node) *dom.Node {
	for _, k := range kids {
		k.Parent = n
	}
	n.Children = kids
	return n
}

// edgeTree holds what an XML round trip loses or a compact encoding might
// miss: a DOCTYPE, top-level comments and PIs, adjacent texts, empty and
// whitespace-only texts, empty attribute values in a set order, non-ASCII
// names and text, zero XIDs and XIDs with gaps.
func edgeTree() *dom.Node {
	item := func(typ dom.NodeType, name, value string, x int64) *dom.Node {
		return &dom.Node{Type: typ, Name: name, Value: value, XID: x}
	}
	root := withChildren(&dom.Node{Type: dom.Element, Name: "café", XID: 1 << 40,
		Attrs: []dom.Attr{{Name: "z", Value: ""}, {Name: "a", Value: "ü ü"}, {Name: "m", Value: "z"}}},
		item(dom.Text, "", "one", 7),
		item(dom.Text, "", "two", 0),
		item(dom.Text, "", "", 3),
		item(dom.Text, "", " \n\t", 9),
		withChildren(&dom.Node{Type: dom.Element, Name: "日本語", XID: 40},
			item(dom.Text, "", "テキスト", 0)),
		&dom.Node{Type: dom.Element, Name: "empty"},
		item(dom.Comment, "", "", 12),
		item(dom.ProcInst, "pi", "", 13),
		item(dom.Text, "", "tail", 1),
	)
	return withChildren(&dom.Node{Type: dom.Document, Doctype: `DOCTYPE café [<!ATTLIST café id ID #IMPLIED>]`, XID: -5},
		item(dom.Comment, "", " before ", 2),
		item(dom.ProcInst, "xml-stylesheet", `href="s.css"`, 0),
		root,
		item(dom.Comment, "", "after", 5),
	)
}

// TestFreezeThawExact: thaw(freeze(t)) is t in every field, Parent
// pointers included, over changesim catalogs and pages, xptest's
// generated trees, parsed documents with comments and PIs, and the
// hand-built edge cases, with XIDs and without.
func TestFreezeThawExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trees := map[string]*dom.Node{"edge cases": edgeTree()}
	for i := 0; i < 4; i++ {
		trees[fmt.Sprint("catalog ", i)] = changesim.Catalog(rng, 1+i, 2+i)
		trees[fmt.Sprint("HTML page ", i)] = changesim.HTMLPage(rng, 1+i)
		tape := make([]byte, 16)
		rng.Read(tape)
		trees[fmt.Sprint("xptest tree ", i)] = xptest.GenCase(xptest.NewTape(tape)).Doc
	}
	trees["catalog of 7 KB"] = changesim.CatalogOfSize(rng, 7000)
	parsed, err := dom.ParseBytes([]byte(`<?xml version="1.0"?><!DOCTYPE r><!--c--><?p  body?><r b="" a="1"> <x>a&amp;b</x>
	<y/><![CDATA[ <z> ]]></r><!--end-->`), snapshotLoadOptions())
	if err != nil {
		t.Fatal(err)
	}
	trees["parsed"] = parsed
	for name, doc := range trees {
		t.Run(name, func(t *testing.T) {
			roundTrip(t, doc) // zero XIDs, or the edge cases' own
			if name == "edge cases" {
				return
			}
			xid.Assign(doc)
			roundTrip(t, doc)
		})
	}
}

// tinyFrame is the frame of <a k="v">t</a> with XIDs 3, 2 and 1, written
// out by hand; the names are "a" and "k", the values "v" and "t".
func tinyFrame() []byte {
	return []byte{
		4, 3, 1, 2, 1, 1, // text length, nodes, attributes, names, name lengths
		'a', 'k', 'v', 't',
		tagChildren | byte(dom.Document), 1, 6,
		tagName | tagAttrs | tagChildren | byte(dom.Element), 0, 1, 1, 1, 1, 4,
		tagValue | byte(dom.Text), 1, 2,
	}
}

// badFrames are tinyFrame with one fault each: the frames
// TestKeyframeFallback and FuzzThaw start from.
func badFrames() map[string][]byte {
	set := func(i int, b byte) []byte {
		f := tinyFrame()
		f[i] = b
		return f
	}
	return map[string][]byte{
		"truncated":                 tinyFrame()[:len(tinyFrame())-1],
		"name index out of range":   set(14, 2),
		"counts that do not add up": set(2, 2),
		"trailing bytes":            append(tinyFrame(), 0),
		"zero child count":          set(11, 0),
		"node type out of range":    set(20, tagValue|7),
		"value past the text's end": set(21, 2),
		"node count past the shape": set(1, 4),
	}
}

// TestFrameFormat pins the frame layout: freeze writes tinyFrame for
// its tree, and each of badFrames is refused with errFrame.
func TestFrameFormat(t *testing.T) {
	doc := withChildren(&dom.Node{Type: dom.Document, XID: 3},
		withChildren(&dom.Node{Type: dom.Element, Name: "a", Attrs: []dom.Attr{{Name: "k", Value: "v"}}, XID: 2},
			&dom.Node{Type: dom.Text, Value: "t", XID: 1}))
	if got := roundTrip(t, doc); string(got) != string(tinyFrame()) {
		t.Fatalf("freeze wrote % x, want % x", got, tinyFrame())
	}
	for name, frame := range badFrames() {
		if doc, err := thaw(frame); !errors.Is(err, errFrame) || doc != nil {
			t.Errorf("%s: thaw returned %v, %v; want nil and a bad-keyframe error", name, doc, err)
		}
	}
}

// FuzzThaw: no frame makes thaw panic, and a frame it accepts holds a
// tree that freezes and thaws back to the same tree, XIDs included.
func FuzzThaw(f *testing.F) {
	f.Add(tinyFrame())
	for _, frame := range badFrames() {
		f.Add(frame)
	}
	for _, doc := range []*dom.Node{edgeTree(), changesim.Catalog(rand.New(rand.NewSource(1)), 1, 2)} {
		xid.Assign(doc)
		frame, _ := freeze(doc)
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		doc, err := thaw(b)
		if err != nil {
			if !errors.Is(err, errFrame) || doc != nil {
				t.Fatalf("thaw returned %v, %v", doc, err)
			}
			return
		}
		roundTrip(t, doc)
	})
}

// BenchmarkKeyframe times the two halves of a cache miss on a 7 KB
// catalog: freezing the tree an insertion evicts, and thawing the tree
// the miss restores.
func BenchmarkKeyframe(b *testing.B) {
	doc := changesim.CatalogOfSize(rand.New(rand.NewSource(7)), 7000)
	xid.Assign(doc)
	frame, _ := freeze(doc)
	b.Run("freeze", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			freeze(doc)
		}
	})
	b.Run("thaw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := thaw(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}
