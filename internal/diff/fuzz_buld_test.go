package diff_test

import (
	"bytes"
	"math/rand"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/xptest"
)

// FuzzBULDMatchingDifferential holds BULD's flat signature index and
// typed queue to the map-and-container/heap Phase 3 they replaced
// (reference_test.go): on every input both must pair the same nodes and
// produce the same delta bytes. The tape picks the input shape — a
// changesim catalog step, many identical <p><b>x</b>same text</p>
// siblings edited on both sides, or a catalog with DTD-declared IDs
// some of which lose their counterpart — then a few positional edits
// and the options that steer Phase 3.
func FuzzBULDMatchingDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 7, 2, 4, 1, 0, 0, 0, 3, 0})
	f.Add([]byte{1, 12, 3, 0, 5, 9, 2, 7, 1, 0, 0})
	f.Add([]byte{1, 39, 6, 3, 20, 121, 5, 2, 0, 0, 1, 2})
	f.Add([]byte{2, 0, 0, 0, 11, 14, 1, 2, 1, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 1, 3, 29, 3, 0, 0, 4, 2, 1, 17, 1, 0, 2})
	f.Fuzz(func(t *testing.T, b []byte) {
		tape := xptest.NewTape(b)
		var oldDoc, newDoc *dom.Node
		switch tape.Intn(3) {
		case 0:
			oldDoc = changesim.Catalog(rand.New(rand.NewSource(tape.Seed())), 1+tape.Intn(3), 1+tape.Intn(5))
			rate, seed := 0.05*float64(1+tape.Intn(6)), tape.Seed()
			sim, err := changesim.Simulate(oldDoc, changesim.Uniform(rate, seed))
			if err != nil {
				t.Fatal(err)
			}
			newDoc = sim.New
		case 1:
			oldDoc, newDoc = repeatedParagraphs(1 + tape.Intn(40))
			editParagraphs(tape, oldDoc)
			editParagraphs(tape, newDoc)
		default:
			seed, size := tape.Seed(), 200+100*tape.Intn(30)
			rate, every := 0.05*float64(1+tape.Intn(6)), 1+tape.Intn(6)
			oldDoc, newDoc = idCatalogPair(t, seed, size, rate, every)
			if tape.Intn(2) == 1 {
				// Two old Products share an ID value: Phase 1 ignores it.
				var products []*dom.Node
				for _, n := range dom.Preorder(oldDoc) {
					if n.Type == dom.Element && n.Name == "Product" {
						products = append(products, n)
					}
				}
				pid, _ := products[0].Attribute("pid")
				products[len(products)-1].SetAttribute("pid", pid)
			}
		}
		script := make([]byte, 3*tape.Intn(6))
		for i := range script {
			script[i] = tape.Byte()
		}
		applyScript(newDoc, script)
		mergeAdjacentText(newDoc)
		opts := diff.Options{EagerDown: tape.Intn(4) == 0, MaxAncestorDepth: tape.Intn(3)}

		got, err := diff.Matching(oldDoc, newDoc, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := diff.ReferenceMatching(oldDoc, newDoc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d pairs, reference %d", len(got), len(want))
		}
		for o, n := range want {
			if g := got[o]; g != n {
				where := "nothing"
				if g != nil {
					where = g.Path()
				}
				t.Fatalf("old %s paired with new %s, reference %s", o.Path(), where, n.Path())
			}
		}

		d, err := diff.Diff(oldDoc.Clone(), newDoc.Clone(), opts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := diff.ReferenceDiff(oldDoc.Clone(), newDoc.Clone(), opts)
		if err != nil {
			t.Fatal(err)
		}
		gotText, err := d.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		wantText, err := ref.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotText, wantText) {
			t.Fatalf("delta differs from the reference\n got: %s\nwant: %s", gotText, wantText)
		}
	})
}

// editParagraphs inserts, deletes and swaps a few of the repeated
// paragraphs under doc's root, drawing the new ones from four kinds
// that share their bold or their text with the probe's, so signatures
// end up once on one side and several times on the other, and equal
// candidates sit on both sides of a consumed position.
func editParagraphs(tape *xptest.Tape, doc *dom.Node) {
	root := doc.Children[0]
	for k := tape.Intn(8); k > 0; k-- {
		n := len(root.Children)
		switch tape.Intn(3) {
		case 0:
			bold, text := []string{"x", "y"}[tape.Intn(2)], []string{"same text", "marker"}[tape.Intn(2)]
			if err := root.InsertAt(tape.Intn(n+1), paragraph(bold, text)); err != nil {
				panic(err)
			}
		case 1:
			if n > 1 {
				root.RemoveAt(tape.Intn(n))
			}
		default:
			i, j := tape.Intn(n), tape.Intn(n)
			root.Children[i], root.Children[j] = root.Children[j], root.Children[i]
		}
	}
}
