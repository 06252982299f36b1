package sftm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/dom"
	"xydiff/internal/sftm"
)

// requireEqualsReference holds sftm.Match to the reference matcher
// (reference_test.go) on one pair: the same pairs, node for node, and
// the same candidate and stop-token counts.
func requireEqualsReference(t testing.TB, name string, oldDoc, newDoc *dom.Node) {
	t.Helper()
	want, wantStats, err := MatchDetailed(oldDoc, newDoc, Options{})
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, err := sftm.Match(oldDoc, newDoc, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(got.Old) != wantStats.OldNodes+1 || len(got.New) != wantStats.NewNodes+1 {
		t.Fatalf("%s: %d/%d nodes, reference %d/%d", name, len(got.Old)-1, len(got.New)-1, wantStats.OldNodes, wantStats.NewNodes)
	}
	if got.OldToNew[0] != 0 {
		t.Fatalf("%s: documents not paired", name)
	}
	// The reference's pairs are one-to-one, so naming only pairs it has,
	// and as many as it has, is naming exactly its pairs.
	matched := 0
	for oi, ni := range got.OldToNew {
		if oi == 0 || ni < 0 {
			continue
		}
		matched++
		if o, n := got.Old[oi], got.New[ni]; want[o] != n {
			t.Fatalf("%s: old node %d (%s) matched to new node %d (%s); reference: %s",
				name, oi, o.Path(), ni, n.Path(), describe(want[o]))
		}
	}
	if matched != wantStats.Matched {
		t.Fatalf("%s: %d pairs, reference %d", name, matched, wantStats.Matched)
	}
	if got.Candidates != wantStats.Candidates || got.StopTokens != wantStats.StopTokens {
		t.Fatalf("%s: candidates %d stop tokens %d, reference %d and %d",
			name, got.Candidates, got.StopTokens, wantStats.Candidates, wantStats.StopTokens)
	}
}

func describe(n *dom.Node) string {
	if n == nil {
		return "unmatched"
	}
	return n.Path()
}

// TestMatchEqualsReference is the rewrite's oracle in tier 1. It covers
// both regimes of the index: HTML pages, where most tokens discriminate
// and candidate lists are full, and catalogs, where nearly every token
// is a stop token and adoption does most of the matching.
func TestMatchEqualsReference(t *testing.T) {
	t.Run("html", func(t *testing.T) {
		// One chain per seed, each step churning more than the last, so
		// later pairs start from pages that already carry wrappers,
		// churned attributes and rewritten copy.
		for seed := int64(1); seed <= 40; seed++ {
			sections := 5 + int(seed*23)%61 // 5–65
			doc := changesim.HTMLPage(rand.New(rand.NewSource(seed)), sections)
			for step, churn := range []float64{0.02, 0.12, 0.30, 0.60} {
				sim, err := changesim.SimulateHTML(doc, changesim.UniformHTML(churn, seed*10+int64(step)))
				if err != nil {
					t.Fatal(err)
				}
				requireEqualsReference(t, fmt.Sprintf("seed %d churn %.2f (%d sections)", seed, churn, sections), doc, sim.New)
				doc = sim.New
			}
		}
	})
	t.Run("catalog", func(t *testing.T) {
		for seed := int64(1); seed <= 10; seed++ {
			for _, churn := range []float64{0.05, 0.20, 0.50} {
				doc := changesim.CatalogOfSize(rand.New(rand.NewSource(seed)), 4000*int(seed))
				for step := int64(0); step < 3; step++ {
					sim, err := changesim.Simulate(doc, changesim.Uniform(churn, seed*10+step))
					if err != nil {
						t.Fatal(err)
					}
					requireEqualsReference(t, fmt.Sprintf("seed %d churn %.2f step %d", seed, churn, step), doc, sim.New)
					doc = sim.New
				}
			}
		}
	})
	t.Run("unrelated", func(t *testing.T) {
		page := changesim.HTMLPage(rand.New(rand.NewSource(3)), 12)
		catalog := changesim.CatalogOfSize(rand.New(rand.NewSource(4)), 20000)
		requireEqualsReference(t, "page→catalog", page, catalog)
		requireEqualsReference(t, "catalog→page", catalog, page)
		requireEqualsReference(t, "page→empty", page, dom.NewDocument())
		requireEqualsReference(t, "empty→page", dom.NewDocument(), page)
		requireEqualsReference(t, "empty→empty", dom.NewDocument(), dom.NewDocument())
	})
	t.Run("cases", func(t *testing.T) {
		cards := repeatedCards()
		for i, c := range [][2]string{
			{identicalSrc, identicalSrc},
			{wrapperOld, wrapperNew},
			{churnOld, churnNew},
			{reorderOld, reorderNew},
			{rewriteOld, rewriteNew},
			{shuffleOld, shuffleNew},
			{cards, cards},
		} {
			requireEqualsReference(t, fmt.Sprintf("case %d", i), parse(t, c[0]), parse(t, c[1]))
			requireEqualsReference(t, fmt.Sprintf("case %d reversed", i), parse(t, c[1]), parse(t, c[0]))
		}
		for i, c := range differentialSeeds {
			requireEqualsReference(t, fmt.Sprintf("fuzz seed %d", i), parse(t, c[0]), parse(t, c[1]))
		}
	})
}

// requireScoresEqualReference compares what decides the matching
// rather than the matching: every candidate list, in order, with base
// and propagated score equal as float64s. It holds the rewrite to the
// reference's summation orders (a node's tokens in ascending hash,
// children in document order), which move a score by an ulp long before
// they move a pair.
func requireScoresEqualReference(t testing.TB, name string, oldDoc, newDoc *dom.Node) {
	t.Helper()
	ref := &matcher{old: flatten(oldDoc), new: flatten(newDoc)}
	ref.tokenize()
	ref.buildIndex()
	ref.selectCandidates()
	ref.propagate()
	got := sftm.CandidateScores(oldDoc, newDoc)
	if len(got) != len(ref.cands) {
		t.Fatalf("%s: %d candidate lists, reference %d", name, len(got), len(ref.cands))
	}
	for ni, want := range ref.cands {
		if len(got[ni]) != len(want) {
			t.Fatalf("%s: new node %d has %d candidates, reference %d", name, ni, len(got[ni]), len(want))
		}
		for r, w := range want {
			if g := got[ni][r]; g.Old != w.o || g.Base != w.base || g.Score != w.score {
				t.Fatalf("%s: new node %d candidate %d = (old %d, base %v, score %v), reference (old %d, base %v, score %v)",
					name, ni, r, g.Old, g.Base, g.Score, w.o, w.base, w.score)
			}
		}
	}
}

func TestScoresEqualReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		doc := changesim.HTMLPage(rand.New(rand.NewSource(seed)), int(5*seed))
		sim, err := changesim.SimulateHTML(doc, changesim.UniformHTML(0.04*float64(seed), seed))
		if err != nil {
			t.Fatal(err)
		}
		requireScoresEqualReference(t, fmt.Sprintf("html seed %d", seed), doc, sim.New)
	}
	for seed := int64(1); seed <= 3; seed++ {
		doc := changesim.CatalogOfSize(rand.New(rand.NewSource(seed)), 10000)
		sim, err := changesim.Simulate(doc, changesim.Uniform(0.2, seed))
		if err != nil {
			t.Fatal(err)
		}
		requireScoresEqualReference(t, fmt.Sprintf("catalog seed %d", seed), doc, sim.New)
	}
	for i, c := range differentialSeeds {
		requireScoresEqualReference(t, fmt.Sprintf("fuzz seed %d", i), parse(t, c[0]), parse(t, c[1]))
	}
}

// differentialSeeds aim at the tokenizer's corners (the two-byte
// lower-casing of non-ASCII, title-case and multi-rune case mappings,
// runes above U+FFFF, multi-valued attributes) and at the node kinds
// and tie-breaks HTML pages do not exercise.
var differentialSeeds = [][2]string{
	{`<p>Größe ÉCOLE Ñandú ǅemal İstanbul straße ΣΊΣΥΦΟΣ</p>`, `<p>größe école ñandú ǆemal istanbul STRASSE σίσυφος</p>`},
	{`<a>MiXeD Case wORDS and 123 digits٣٤</a>`, `<a>mixed CASE Words AND 123 DIGITS٣٤</a>`},
	{`<t>𝔘𝔫𝔦𝔠𝔬𝔡𝔢 𐐷𐐲𐑌 😀 text 漢字かな</t>`, `<t>𝔘𝔫𝔦𝔠𝔬𝔡𝔢 𐐏𐐲𐑌 😀 more text 漢字カナ</t>`},
	{`<r><!-- a comment here --><?pi some data?><x/><!--second one--></r>`, `<r><?pi other data?><!-- a comment there --><x/><?pj some data?></r>`},
	{`<r><a class="one two  three" rel="nofollow noopener" href="/x">go</a></r>`, `<r><a class="three one" rel="noopener" href="/x?y">go</a></r>`},
	{`<ul><li>same</li><li>same</li><li>same</li><li>same</li></ul>`, `<ul><li>same</li><li>same</li><li>other</li><li>same</li><li>same</li></ul>`},
	{`<r><p>one</p>tail<p>two</p><q/><q/></r>`, `<r><q/><p>uno</p>tail end<p>dos</p><q/><q>x</q></r>`},
	// Only a rune's low two bytes are hashed: ķ (U+0137) and з (U+0437)
	// differ in the second, з and 𐐷 (U+10437) in neither.
	{`<r><p>ķ</p><p>з</p><p>ķ ķ</p></r>`, `<r><p>з</p><p>ķ</p><p>з з</p></r>`},
	{`<r><p>з</p><p>𐐷</p><p>з з</p></r>`, `<r><p>𐐷</p><p>з</p><p>𐐷 𐐷</p></r>`},
	{`<r/>`, `<s/>`},
	{`<r>a-b_c.d,e;f</r>`, `<r>a b c d e f</r>`},
}

// FuzzMatchDifferential makes both comparisons, pairs and scores, on
// fuzzer-made pairs of documents.
func FuzzMatchDifferential(f *testing.F) {
	for _, c := range differentialSeeds {
		f.Add(c[0], c[1])
	}
	page := changesim.HTMLPage(rand.New(rand.NewSource(1)), 2)
	sim, err := changesim.SimulateHTML(page, changesim.UniformHTML(0.3, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(page.String(), sim.New.String())

	f.Fuzz(func(t *testing.T, oldXML, newXML string) {
		if len(oldXML) > 8<<10 || len(newXML) > 8<<10 {
			return
		}
		oldDoc, err := dom.ParseString(oldXML)
		if err != nil {
			return
		}
		newDoc, err := dom.ParseString(newXML)
		if err != nil {
			return
		}
		requireEqualsReference(t, "fuzz", oldDoc, newDoc)
		requireScoresEqualReference(t, "fuzz", oldDoc, newDoc)
	})
}
