package vstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
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
	if a.Type != b.Type || a.Name != b.Name || a.Value != b.Value || a.XID != b.XID {
		return fmt.Errorf("%s: %v %q %q %d, want %v %q %q %d", a.Path(),
			b.Type, b.Name, b.Value, b.XID, a.Type, a.Name, a.Value, a.XID)
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
	return withChildren(&dom.Node{Type: dom.Document, Value: `DOCTYPE café [<!ATTLIST café id ID #IMPLIED>]`, XID: -5},
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
// its tree, and each of badFrames is refused with a *frameError.
func TestFrameFormat(t *testing.T) {
	doc := withChildren(&dom.Node{Type: dom.Document, XID: 3},
		withChildren(&dom.Node{Type: dom.Element, Name: "a", Attrs: []dom.Attr{{Name: "k", Value: "v"}}, XID: 2},
			&dom.Node{Type: dom.Text, Value: "t", XID: 1}))
	if got := roundTrip(t, doc); string(got) != string(tinyFrame()) {
		t.Fatalf("freeze wrote % x, want % x", got, tinyFrame())
	}
	for name, frame := range badFrames() {
		var fe *frameError
		if doc, err := thaw(frame); !errors.As(err, &fe) || doc != nil {
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
			var fe *frameError
			if !errors.As(err, &fe) || doc != nil {
				t.Fatalf("thaw returned %v, %v", doc, err)
			}
			return
		}
		roundTrip(t, doc)
	})
}

// FuzzResidentDelta: a stored delta held as a frame is the delta it was
// frozen from, checked differentially in the style of Li and Rigger
// (PAPERS.md).
//   - A deltaXML that delta.ParseBytes accepts freezes, and its frame
//     thaws to a delta with the same MarshalText bytes. With oldXML,
//     a Replay stepped forward from that document and back again gives
//     the same trees and XIDs, or the same errors, with the thawed delta
//     as with the parsed one.
//   - oldXML and newXML, diffed as a Put diffs them (BULD, or SFTM when
//     sftm is set), give a delta whose frame thaws to the same
//     MarshalText bytes and steps each version to the other as the
//     delta itself does, XIDs included.
//   - Each frame cut short at cut fails with a *frameError; with the
//     bit flip picks changed, it fails with one or thaws to some delta.
//     Nothing panics.
func FuzzResidentDelta(f *testing.F) {
	for _, s := range residentDeltaSeeds(f) {
		f.Add(s.delta, s.old, s.new, s.sftm, uint16(len(s.delta)/3), uint16(8*len(s.delta)/2+5))
	}
	f.Fuzz(func(t *testing.T, deltaXML, oldXML, newXML string, sftm bool, cut, flip uint16) {
		var frames [][]byte
		old, oldErr := dom.ParseBytes([]byte(oldXML), snapshotLoadOptions())
		if oldErr != nil {
			old = nil
		}
		if _, err := delta.ParseString(deltaXML); err == nil {
			frames = append(frames, checkParsedDelta(t, deltaXML, old))
		}
		if nw, err := dom.ParseBytes([]byte(newXML), snapshotLoadOptions()); err == nil && old != nil {
			if frame := checkBuiltDelta(t, old, nw, sftm); frame != nil {
				frames = append(frames, frame)
			}
		}
		for _, frame := range frames {
			checkDamagedFrame(t, frame, int(cut), int(flip))
		}
	})
}

// residentDelta is one seed of FuzzResidentDelta.
type residentDelta struct {
	delta, old, new string
	sftm            bool
}

// residentDeltaSeeds are the golden deltas of package delta, small
// document pairs with their deltas — ROADMAP item 1's pattern among
// them — and two steps of probe (a)'s chains (ROADMAP "Measured at this
// re-anchor"): 20 KB catalogs stepped by Uniform(0.10, seed·100+step),
// step 3 of seed 73 diffed by BULD and step 4 of seed 94 by SFTM, the
// steps whose deltas held two adjacent texts in a subtree before the
// diff kept movers between texts (diff's separateTexts).
func residentDeltaSeeds(tb testing.TB) []residentDelta {
	files, err := filepath.Glob(filepath.Join("..", "delta", "testdata", "golden", "*.delta.xml"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no golden deltas: %v", err)
	}
	var seeds []residentDelta
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, residentDelta{delta: string(raw)})
	}
	pair := func(old, nw *dom.Node, sftm bool) residentDelta {
		s := residentDelta{old: old.String(), new: nw.String(), sftm: sftm}
		base, err := dom.ParseBytes([]byte(s.old), snapshotLoadOptions())
		if err != nil {
			tb.Fatal(err)
		}
		xid.Assign(base)
		m := diff.MatcherBULD
		if sftm {
			m = diff.MatcherSFTM
		}
		d, err := diff.Diff(base, nw.Clone(), diff.Options{Matcher: m})
		if err != nil {
			tb.Fatal(err)
		}
		text, err := d.MarshalText()
		if err != nil {
			tb.Fatal(err)
		}
		s.delta = string(text)
		return s
	}
	for _, p := range [][2]string{
		{`<r><p>a<x>a heavy payload</x>b</p><q/></r>`, `<r><q><x>a heavy payload</x></q></r>`},
		{`<doc><!--c--><t a="1">x</t><?pi d?></doc>`, `<doc><t a="2" b="3">x y</t><?pi e?><u/></doc>`},
	} {
		old, err := dom.ParseString(p[0])
		if err != nil {
			tb.Fatal(err)
		}
		nw, err := dom.ParseString(p[1])
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, pair(old, nw, false))
	}
	rng := rand.New(rand.NewSource(48))
	doc := changesim.Catalog(rng, 2, 3)
	res, err := changesim.Simulate(doc, changesim.Uniform(0.3, 48))
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, pair(doc, res.New, false), pair(doc, res.New, true))
	for _, c := range []struct {
		seed, step int64
		sftm       bool
	}{{73, 3, false}, {94, 4, true}} {
		cur := changesim.CatalogOfSize(rand.New(rand.NewSource(c.seed)), 20000)
		for step := int64(1); ; step++ {
			res, err := changesim.Simulate(cur, changesim.Uniform(0.10, c.seed*100+step))
			if err != nil {
				tb.Fatal(err)
			}
			if step == c.step {
				seeds = append(seeds, pair(cur, res.New, c.sftm))
				break
			}
			cur = res.New
		}
	}
	return seeds
}

// checkParsedDelta checks src, a delta ParseBytes accepts, against its
// frame, and returns the frame.
func checkParsedDelta(t *testing.T, src string, doc *dom.Node) []byte {
	t.Helper()
	parsed := func() *delta.Delta {
		d, err := delta.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	frame, ok := freezeDelta(parsed())
	if !ok {
		t.Fatalf("a delta ParseBytes accepts does not freeze: %s", src)
	}
	thawed := func() *delta.Delta {
		d, err := thawDelta(frame)
		if err != nil {
			t.Fatalf("its own frame does not thaw: %v", err)
		}
		return d
	}
	sameXML(t, parsed(), frame)
	if doc == nil {
		return frame
	}
	xid.Assign(doc)
	a, b, c := doc.Clone(), doc.Clone(), doc.Clone()
	ra, rb, rc := delta.NewReplay(a), delta.NewReplay(b), delta.NewReplay(c)
	errA := ra.Step(parsed(), false, nil)
	if sameStep(t, "forward", errA, rb.Step(thawed(), false, nil), a, b) && sameStep(t, "forward in place", errA, stepInPlace(rc, frame, false), a, c) {
		errA = ra.Step(parsed(), true, nil)
		if sameStep(t, "backward", errA, rb.Step(thawed(), true, nil), a, b) {
			sameStep(t, "backward in place", errA, stepInPlace(rc, frame, true), a, c)
		}
	}
	return frame
}

// stepInPlace steps r through the delta frame holds as a read walk's
// step does: the subtrees the step attaches thawed, those it detaches
// compared in the frame.
func stepInPlace(r *delta.Replay, frame []byte, backward bool) error {
	var th thawer
	d, err := th.thawStep(frame, backward)
	if err != nil {
		return err
	}
	return r.Step(d, backward, th.differs)
}

// checkBuiltDelta diffs old and nw as a Put does and checks the delta
// against its frame; it returns the frame, or nil when the diff fails.
func checkBuiltDelta(t *testing.T, old, nw *dom.Node, sftm bool) []byte {
	t.Helper()
	xid.Assign(old)
	m := diff.MatcherBULD
	if sftm {
		m = diff.MatcherSFTM
	}
	d, err := diff.Diff(old, nw, diff.Options{Matcher: m})
	if err != nil {
		return nil
	}
	frame, ok := freezeDelta(d)
	if !ok {
		t.Fatalf("a delta the diff built does not freeze")
	}
	sameXML(t, d, frame)
	thawed, err := thawDelta(frame)
	if err != nil {
		t.Fatalf("its own frame does not thaw: %v", err)
	}
	a, b, c := old.Clone(), old.Clone(), old.Clone()
	errA := delta.Apply(a, d)
	sameStep(t, "forward", errA, delta.NewReplay(b).Step(thawed, false, nil), a, b)
	sameStep(t, "forward in place", errA, stepInPlace(delta.NewReplay(c), frame, false), a, c)
	inv, err := d.Invert()
	if err != nil {
		t.Fatal(err)
	}
	if thawed, err = thawDelta(frame); err != nil {
		t.Fatal(err)
	}
	a, b, c = nw.Clone(), nw.Clone(), nw.Clone()
	errA = delta.Apply(a, inv)
	sameStep(t, "backward", errA, delta.NewReplay(b).Step(thawed, true, nil), a, b)
	sameStep(t, "backward in place", errA, stepInPlace(delta.NewReplay(c), frame, true), a, c)
	return frame
}

// sameXML fails unless frame, thawed, writes d's XML.
func sameXML(t *testing.T, d *delta.Delta, frame []byte) {
	t.Helper()
	want, err := d.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	thawed, err := thawDelta(frame)
	if err != nil {
		t.Fatalf("its own frame does not thaw: %v", err)
	}
	got, err := thawed.MarshalText()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the frame writes %s (%v), the delta %s", got, err, want)
	}
}

// sameStep fails unless two steps failed alike or took a and b to the
// same tree, XIDs included; it reports whether they succeeded.
func sameStep(t *testing.T, what string, errA, errB error, a, b *dom.Node) bool {
	t.Helper()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("%s: the delta steps with %v, its frame with %v", what, errA, errB)
	}
	if errA != nil {
		return false
	}
	if err := exactTree(a, b); err != nil {
		t.Fatalf("%s: the frame's step differs from the delta's: %v", what, err)
	}
	return true
}

// checkDamagedFrame thaws frame cut short at cut and with one bit flipped
// at flip: the cut frame fails with a *frameError, the flipped one fails
// with one or thaws to a delta that writes, and neither panics. A step's
// thaw, either way, gives the same verdicts as the whole thaw.
func checkDamagedFrame(t *testing.T, frame []byte, cut, flip int) {
	t.Helper()
	var fe *frameError
	short := frame[:cut%len(frame)]
	if d, err := thawDelta(short); d != nil || !errors.As(err, &fe) {
		t.Fatalf("cut at %d of %d bytes: thawed %v, %v", len(short), len(frame), d, err)
	}
	flipped := bytes.Clone(frame)
	flipped[(flip>>3)%len(flipped)] ^= 1 << (flip & 7)
	d, err := thawDelta(flipped)
	for _, backward := range []bool{false, true} {
		var th thawer
		if d, stepErr := th.thawStep(short, backward); d != nil || !errors.As(stepErr, &fe) {
			t.Fatalf("cut at %d of %d bytes: a step (backward %v) thawed %v, %v", len(short), len(frame), backward, d, stepErr)
		}
		th = thawer{}
		if _, stepErr := th.thawStep(flipped, backward); (stepErr == nil) != (err == nil) || stepErr != nil && !errors.As(stepErr, &fe) {
			t.Fatalf("bit %d flipped: a step (backward %v) thaws with %v, the whole delta with %v", flip, backward, stepErr, err)
		}
	}
	if err != nil {
		if d != nil || !errors.As(err, &fe) {
			t.Fatalf("bit %d flipped: thawed %v, %v", flip, d, err)
		}
		return
	}
	_, _ = d.MarshalText() // a delta that is not one the store built may not write
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
