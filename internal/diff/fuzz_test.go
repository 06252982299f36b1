package diff_test

// FuzzDiffApply lives outside package diff so it can seed documents
// from internal/changesim (which itself imports diff) without an
// import cycle.

import (
	"math/rand"
	"strings"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// FuzzDiffApply is the differential oracle over the whole pipeline for
// BULD: checkDiffApply on an arbitrary well-formed document and an
// arbitrary mutation script.
func FuzzDiffApply(f *testing.F) {
	// Corpus: changesim generator outputs at small sizes, each paired
	// with scripts that cover every mutation opcode.
	rng := rand.New(rand.NewSource(42))
	seedDocs := []string{
		changesim.Catalog(rng, 2, 3).String(),
		changesim.AddressBook(rng, 4).String(),
		changesim.Generic(rng, 40, 5, 4).String(),
		changesim.Articles(rng, 2).String(),
		`<r><a x="1">t</a><b><c/><c/></b></r>`,
	}
	seedScripts := [][]byte{
		{},
		{0, 3, 7},                            // update a text
		{1, 2, 5, 2, 4, 0},                   // set attribute, delete
		{3, 1, 9, 4, 2, 11, 5, 6, 3},         // inserts and a move
		{5, 9, 1, 5, 3, 2, 0, 0, 0, 2, 1, 0}, // move-heavy then edits
	}
	for i, d := range seedDocs {
		f.Add(d, seedScripts[i%len(seedScripts)])
	}
	addMixedContent(f)
	f.Fuzz(func(t *testing.T, docXML string, script []byte) {
		checkDiffApply(t, diff.MatcherBULD, docXML, script)
	})
}

// addMixedContent seeds an Apply fuzzer with documents whose elements
// hold text around child elements. Deleting or inserting such an
// element while a child between two of its texts moves is what
// separateTexts guards against; the scripts here delete, insert and
// move around them.
func addMixedContent(f *testing.F) {
	moves := []byte{5, 9, 1, 5, 3, 2, 0, 0, 0, 2, 1, 0}
	f.Add(`<AddressBook><Person>0<Email></Email>0</Person><Person>0</Person></AddressBook>`, []byte("1Y0AB"))
	f.Add(`<c><Price>a<x>heavy</x>b</Price><Stock/><Item><Name>n</Name></Item></c>`, moves)
	f.Add(`<html><body><p>one <b>two</b> three</p><p>four <i>five</i> six</p><ul><li>x</li></ul></body></html>`, moves)
}

// checkDiffApply is the oracle both Apply fuzzers share: docXML, when it
// is a well-formed document, changed by script, is diffed by matcher,
// and Diff followed by Apply must reproduce the changed serialization
// byte for byte. No op's subtree may hold two adjacent texts, and the
// delta must survive its own XML: serialize, parse, re-serialize
// identical, and still apply to the same result.
func checkDiffApply(t *testing.T, matcher diff.Matcher, docXML string, script []byte) {
	if len(docXML) > 8<<10 || len(script) > 256 {
		return // keep individual executions fast
	}
	oldDoc, err := dom.ParseString(docXML)
	if err != nil {
		return // not a well-formed document: out of scope
	}
	newDoc := oldDoc.Clone()
	applyScript(newDoc, script)
	// Scripts can leave adjacent text nodes behind (delete or move
	// the element separating two texts); those merge on any XML
	// reparse, so no tree holding them round-trips. Normalize into
	// the domain of parseable documents before diffing.
	mergeAdjacentText(newDoc)
	want := newDoc.String()

	d, err := diff.Diff(oldDoc, newDoc, diff.Options{Matcher: matcher})
	if err != nil {
		t.Fatalf("Diff(%s): %v", matcher, err)
	}
	checkNoAdjacentTexts(t, d)
	got, err := delta.ApplyClone(oldDoc, d)
	if err != nil {
		t.Fatalf("Apply: %v\ndelta: %v", err, d)
	}
	if got.String() != want {
		t.Fatalf("%s Diff→Apply mismatch\nold:  %s\nwant: %s\ngot:  %s", matcher, docXML, want, got.String())
	}

	text, err := d.MarshalText()
	if err != nil {
		t.Fatalf("MarshalText: %v", err)
	}
	checkEncoderIdentical(t, d, text)
	d2, err := delta.Parse(strings.NewReader(string(text)))
	if err != nil {
		t.Fatalf("reparsing own delta: %v\n%s", err, text)
	}
	text2, err := d2.MarshalText()
	if err != nil {
		t.Fatalf("re-marshaling reparsed delta: %v", err)
	}
	if string(text) != string(text2) {
		t.Fatalf("delta XML round-trip not stable\nfirst:  %s\nsecond: %s", text, text2)
	}
	got2, err := delta.ApplyClone(oldDoc, d2)
	if err != nil {
		t.Fatalf("applying reparsed delta: %v", err)
	}
	if got2.String() != want {
		t.Fatalf("reparsed %s delta produced a different document", matcher)
	}
}

// checkNoAdjacentTexts fails t when an op's subtree holds two adjacent
// texts: its XML would write them as one, and the delta would not read
// back.
func checkNoAdjacentTexts(t *testing.T, d *delta.Delta) {
	t.Helper()
	for i, op := range d.Ops {
		if op.Subtree == nil {
			continue
		}
		for _, n := range dom.Preorder(op.Subtree) {
			for j := 1; j < len(n.Children); j++ {
				if n.Children[j-1].Type == dom.Text && n.Children[j].Type == dom.Text {
					t.Fatalf("op %d (%v %d) holds adjacent texts %q and %q", i, op.Kind, op.XID, n.Children[j-1].Value, n.Children[j].Value)
				}
			}
		}
	}
}

// TestOpSubtreesHoldNoAdjacentTexts: deleting <Price>a<x>…</x>b</Price>
// while <x> moves into <Stock> (ROADMAP item 1's pattern) gives a
// delta whose deleted subtree keeps <x> between the two texts, from
// every constructor: Diff with either matcher, FromMatching handed the
// mover's pair, and ComposeVersions of two ends whose XIDs say <x>
// survived. Each delta reads back from its XML and applies.
func TestOpSubtreesHoldNoAdjacentTexts(t *testing.T) {
	parse := func(src string) *dom.Node {
		doc, err := dom.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	const oldXML, newXML = `<c><Price>a<x>heavy</x>b</Price><Stock/></c>`, `<c><Stock><x>heavy</x></Stock></c>`
	check := func(name string, old *dom.Node, d *delta.Delta, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkNoAdjacentTexts(t, d)
		text, err := d.MarshalText()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := delta.ParseBytes(text)
		if err != nil {
			t.Fatalf("%s: the delta does not read back: %v\n%s", name, err, text)
		}
		got, err := delta.ApplyClone(old, back)
		if err != nil || got.String() != parse(newXML).String() {
			t.Fatalf("%s: the delta read back applies to %v, %v", name, got, err)
		}
	}
	for _, m := range []diff.Matcher{diff.MatcherBULD, diff.MatcherSFTM} {
		old := parse(oldXML)
		d, err := diff.Diff(old, parse(newXML), diff.Options{Matcher: m})
		check(string(m), old, d, err)
	}

	// pairs matches <c>, <Stock>, <x> and its text; <Price> and its two
	// texts have no partner.
	pairs := func(old, nw *dom.Node) map[*dom.Node]*dom.Node {
		c, nc := old.Children[0], nw.Children[0]
		x, nx := c.Children[0].Children[1], nc.Children[0].Children[0]
		return map[*dom.Node]*dom.Node{c: nc, c.Children[1]: nc.Children[0], x: nx, x.Children[0]: nx.Children[0]}
	}
	old, nw := parse(oldXML), parse(newXML)
	d, err := diff.FromMatching(old, nw, pairs(old, nw), diff.Options{})
	check("FromMatching", old, d, err)

	// ComposeVersions matches by XID: final carries those of the nodes
	// pairs matches, <x>'s among them.
	old, final := parse(oldXML), parse(newXML)
	xid.Assign(old)
	final.XID = old.XID
	for o, n := range pairs(old, final) {
		n.XID = o.XID
	}
	d, err = diff.ComposeVersions(old.Clone(), final)
	check("ComposeVersions", old, d, err)
}

// checkEncoderIdentical holds the streaming delta encoder, whose output
// text is, to the encoder it replaced: build the delta's document,
// serialize the tree. Both fuzzers call it, so both committed corpora
// run through it on every go test.
func checkEncoderIdentical(t *testing.T, d *delta.Delta, text []byte) {
	t.Helper()
	doc, err := d.ToDoc()
	if err != nil {
		t.Fatalf("ToDoc: %v", err)
	}
	if want := doc.String(); string(text) != want {
		t.Fatalf("streaming encoder differs from ToDoc().WriteTo\n got: %s\nwant: %s", text, want)
	}
	if d.Size() != len(text) {
		t.Fatalf("Size() = %d, the encoding has %d bytes", d.Size(), len(text))
	}
}

// applyScript interprets script bytes as a bounded edit sequence over
// doc: updates, attribute edits, deletes, inserts and moves, all chosen
// positionally so any byte string is a valid script.
func applyScript(doc *dom.Node, script []byte) {
	pos := 0
	next := func() (byte, bool) {
		if pos >= len(script) {
			return 0, false
		}
		b := script[pos]
		pos++
		return b, true
	}
	for step := 0; step < 48; step++ {
		op, ok := next()
		if !ok {
			return
		}
		tb, ok := next()
		if !ok {
			return
		}
		vb, _ := next()
		nodes := dom.Preorder(doc)
		if len(nodes) <= 1 {
			doc.Append(dom.NewElement(letters(vb)))
			continue
		}
		target := nodes[1+int(tb)%(len(nodes)-1)] // never the document
		switch op % 6 {
		case 0: // update a value-carrying node
			if target.Type == dom.Text || target.Type == dom.Comment {
				target.Value = letters(vb)
			}
		case 1: // set or overwrite an attribute
			if target.Type == dom.Element {
				target.SetAttribute("k"+letters(vb%4), letters(vb))
			}
		case 2: // delete a subtree
			target.Detach()
		case 3: // insert an element
			insertUnder(target, dom.NewElement(letters(vb)), vb)
		case 4: // insert a text node
			insertUnder(target, dom.NewText(letters(vb)), vb)
		case 5: // move target under another element
			dest := nodes[int(vb)%len(nodes)]
			if dest.Type != dom.Element && dest.Type != dom.Document {
				continue
			}
			if inside(dest, target) || dest == target.Parent && len(dest.Children) < 2 {
				continue
			}
			target.Detach()
			p := int(tb) % (len(dest.Children) + 1)
			if dest.InsertAt(p, target) != nil {
				doc.Append(target) // reattach so the node is not lost
			}
		}
	}
}

// insertUnder places child under target when target can hold children,
// otherwise as its sibling.
func insertUnder(target, child *dom.Node, posByte byte) {
	parent := target
	if parent.Type != dom.Element && parent.Type != dom.Document {
		parent = target.Parent
	}
	if parent == nil {
		return
	}
	p := int(posByte) % (len(parent.Children) + 1)
	_ = parent.InsertAt(p, child)
}

// mergeAdjacentText concatenates runs of neighboring text children
// throughout the tree.
func mergeAdjacentText(n *dom.Node) {
	for i := 0; i+1 < len(n.Children); {
		a, b := n.Children[i], n.Children[i+1]
		if a.Type == dom.Text && b.Type == dom.Text {
			a.Value += b.Value
			n.RemoveAt(i + 1)
		} else {
			i++
		}
	}
	for _, c := range n.Children {
		mergeAdjacentText(c)
	}
}

// inside reports whether n lies in the subtree rooted at root.
func inside(n, root *dom.Node) bool {
	for ; n != nil; n = n.Parent {
		if n == root {
			return true
		}
	}
	return false
}

// letters maps a byte to a short lowercase string, keeping injected
// names and values inside XML's safe name alphabet.
func letters(b byte) string {
	s := string(rune('a' + b%26))
	return strings.Repeat(s, 1+int(b/26)%3)
}
