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
)

// FuzzDiffApply is the differential oracle over the whole pipeline: for
// an arbitrary well-formed document and an arbitrary mutation script,
// Diff followed by Apply must reproduce the mutated serialization
// byte-for-byte, and the delta must survive an XML serialize/parse
// round-trip unchanged.
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

	f.Fuzz(func(t *testing.T, docXML string, script []byte) {
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

		d, err := diff.Diff(oldDoc, newDoc, diff.Options{})
		if err != nil {
			t.Fatalf("Diff: %v", err)
		}
		got, err := delta.ApplyClone(oldDoc, d)
		if err != nil {
			t.Fatalf("Apply: %v\ndelta: %v", err, d)
		}
		if got.String() != want {
			t.Fatalf("Diff→Apply mismatch\nold:  %s\nwant: %s\ngot:  %s", docXML, want, got.String())
		}

		// The delta must survive its own XML round-trip: serialize,
		// parse, re-serialize identical, and still apply to the same
		// result.
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
			t.Fatalf("reparsed delta produced a different document")
		}
	})
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
