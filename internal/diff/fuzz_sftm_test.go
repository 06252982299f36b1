package diff_test

import (
	"math/rand"
	"strings"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

// FuzzSFTMApply is the differential oracle for the SFTM matcher: the
// same Diff→Apply byte-identity contract FuzzDiffApply pins for BULD,
// but with Options.Matcher set to SFTM. Whatever pairs the similarity
// matcher proposes — good, bad, or none — the delta built from them
// must still reproduce the mutated document exactly and survive its
// own XML round-trip. The seed corpus leans on the id-less HTML
// generator, the regime SFTM exists for.
func FuzzSFTMApply(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	seedDocs := []string{
		changesim.HTMLPage(rand.New(rand.NewSource(1)), 2).String(),
		changesim.HTMLPage(rand.New(rand.NewSource(2)), 3).String(),
		changesim.Catalog(rng, 2, 3).String(),
		changesim.Generic(rng, 30, 4, 4).String(),
		`<ul><li>alpha</li><li>alpha</li><li>alpha</li></ul>`,
	}
	seedScripts := [][]byte{
		{},
		{0, 3, 7},
		{1, 2, 5, 2, 4, 0},
		{3, 1, 9, 4, 2, 11, 5, 6, 3},
		{2, 1, 0, 4, 5, 3, 5, 9, 1},
	}
	for i, d := range seedDocs {
		f.Add(d, seedScripts[i%len(seedScripts)])
	}

	f.Fuzz(func(t *testing.T, docXML string, script []byte) {
		if len(docXML) > 8<<10 || len(script) > 256 {
			return
		}
		oldDoc, err := dom.ParseString(docXML)
		if err != nil {
			return
		}
		newDoc := oldDoc.Clone()
		applyScript(newDoc, script)
		mergeAdjacentText(newDoc)
		want := newDoc.String()

		d, err := diff.Diff(oldDoc, newDoc, diff.Options{Matcher: diff.MatcherSFTM})
		if err != nil {
			t.Fatalf("Diff(sftm): %v", err)
		}
		got, err := delta.ApplyClone(oldDoc, d)
		if err != nil {
			t.Fatalf("Apply: %v\ndelta: %v", err, d)
		}
		if got.String() != want {
			t.Fatalf("sftm Diff→Apply mismatch\nold:  %s\nwant: %s\ngot:  %s", docXML, want, got.String())
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
		got2, err := delta.ApplyClone(oldDoc, d2)
		if err != nil {
			t.Fatalf("applying reparsed delta: %v", err)
		}
		if got2.String() != want {
			t.Fatalf("reparsed sftm delta produced a different document")
		}
	})
}
