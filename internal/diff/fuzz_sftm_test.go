package diff_test

import (
	"math/rand"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/diff"
)

// FuzzSFTMApply is FuzzDiffApply's oracle, checkDiffApply, for the SFTM
// matcher. Whatever pairs the similarity matcher proposes — good, bad,
// or none — the delta built from them must still reproduce the mutated
// document exactly and survive its own XML round-trip. The seed corpus
// leans on the id-less HTML generator, the regime SFTM exists for.
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

	addMixedContent(f)
	f.Fuzz(func(t *testing.T, docXML string, script []byte) {
		checkDiffApply(t, diff.MatcherSFTM, docXML, script)
	})
}
