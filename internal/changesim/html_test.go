package changesim

import (
	"math/rand"
	"testing"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

func TestHTMLPageDeterministic(t *testing.T) {
	a := HTMLPage(rand.New(rand.NewSource(7)), 5)
	b := HTMLPage(rand.New(rand.NewSource(7)), 5)
	if a.String() != b.String() {
		t.Fatal("same seed produced different pages")
	}
	// No id attributes anywhere: the corpus must not hand matchers an
	// identity shortcut.
	dom.WalkPre(a, func(n *dom.Node) bool {
		if _, ok := n.Attribute("id"); ok {
			t.Fatalf("<%s> has an id attribute", n.Name)
		}
		return true
	})
}

func TestSimulateHTMLPerfectDeltaApplies(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		doc := HTMLPage(rand.New(rand.NewSource(seed)), 6)
		res, err := SimulateHTML(doc, UniformHTML(0.12, seed*31))
		if err != nil {
			t.Fatal(err)
		}
		got, err := delta.ApplyClone(doc, res.Perfect)
		if err != nil {
			t.Fatalf("seed %d: apply: %v", seed, err)
		}
		if !dom.Equal(got, res.New) {
			t.Fatalf("seed %d (%s): perfect delta does not reproduce the mutation: %s",
				seed, res.stats, dom.Diagnose(got, res.New))
		}
	}
}

func TestSimulateHTMLGroundTruth(t *testing.T) {
	doc := HTMLPage(rand.New(rand.NewSource(3)), 6)
	res, err := SimulateHTML(doc, UniformHTML(0.15, 99))
	if err != nil {
		t.Fatal(err)
	}
	if res.stats.wraps == 0 || res.stats.attrChurns == 0 || res.stats.reorders == 0 {
		t.Fatalf("mutation mix too thin for a corpus: %s", res.stats)
	}
	alive := make(map[*dom.Node]bool)
	dom.WalkPre(res.New, func(n *dom.Node) bool { alive[n] = true; return true })
	orig := make(map[*dom.Node]bool)
	dom.WalkPre(doc, func(n *dom.Node) bool { orig[n] = true; return true })
	for o, n := range res.Pairs {
		if !orig[o] {
			t.Fatal("ground-truth key not in the old document")
		}
		if !alive[n] {
			t.Fatal("ground-truth value not in the new document")
		}
		if o.Type != n.Type {
			t.Fatalf("pair changes node type: %v -> %v", o.Type, n.Type)
		}
	}
}

// matchQuality scores a computed matching against the ground truth.
func matchQuality(truth, got map[*dom.Node]*dom.Node) (precision, recall float64) {
	if len(got) == 0 {
		return 0, 0
	}
	correct := 0
	for o, n := range got {
		if truth[o] == n {
			correct++
		}
	}
	return float64(correct) / float64(len(got)), float64(correct) / float64(len(truth))
}

// TestSFTMQualityOnHTMLCorpus is the match-quality smoke in tier-1: on
// the id-less HTML corpus SFTM must stay above an absolute precision
// and recall floor, and must beat BULD-without-IDs on both — the
// regime SFTM exists for. The full sweep, with delta sizes, is pinned
// by internal/bench's TestQualityPinned.
func TestSFTMQualityOnHTMLCorpus(t *testing.T) {
	var sftmP, sftmR, buldP, buldR float64
	const runs = 5
	for seed := int64(1); seed <= runs; seed++ {
		doc := HTMLPage(rand.New(rand.NewSource(seed)), 6)
		res, err := SimulateHTML(doc, UniformHTML(0.12, seed*17))
		if err != nil {
			t.Fatal(err)
		}
		sftm, err := diff.Matching(doc, res.New, diff.Options{Matcher: diff.MatcherSFTM})
		if err != nil {
			t.Fatal(err)
		}
		buld, err := diff.Matching(doc, res.New, diff.Options{DisableIDAttributes: true})
		if err != nil {
			t.Fatal(err)
		}
		p, r := matchQuality(res.Pairs, sftm)
		sftmP += p / runs
		sftmR += r / runs
		p, r = matchQuality(res.Pairs, buld)
		buldP += p / runs
		buldR += r / runs
	}
	t.Logf("sftm precision=%.3f recall=%.3f | buld precision=%.3f recall=%.3f",
		sftmP, sftmR, buldP, buldR)
	if sftmP < 0.95 {
		t.Errorf("sftm precision %.3f below the 0.95 floor", sftmP)
	}
	if sftmR < 0.9 {
		t.Errorf("sftm recall %.3f below the 0.9 floor", sftmR)
	}
	if sftmP <= buldP {
		t.Errorf("sftm precision %.3f does not beat buld-without-ids %.3f", sftmP, buldP)
	}
	if sftmR <= buldR {
		t.Errorf("sftm recall %.3f does not beat buld-without-ids %.3f", sftmR, buldR)
	}
}
