package diff_test

// These tests pin the deltas themselves: a seeded corpus whose delta
// XML must not move, and the shared pools under concurrent use. They
// live in an external test package so they can drive changesim (which
// imports diff) as the corpus generator.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

// corpusPair generates one old/new document pair of the seeded corpus.
func corpusPair(t *testing.T, seed int64, bytes int, rate float64) (*dom.Node, *dom.Node) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var oldDoc *dom.Node
	switch seed % 3 {
	case 0:
		oldDoc = changesim.CatalogOfSize(rng, bytes)
	case 1:
		oldDoc = changesim.Generic(rng, bytes/24, 8, 6)
	default:
		oldDoc = changesim.AddressBook(rng, bytes/200)
	}
	sim, err := changesim.Simulate(oldDoc, changesim.Uniform(rate, seed+99))
	if err != nil {
		t.Fatal(err)
	}
	return oldDoc, sim.New
}

// catalogPair is a catalog of about bytes bytes and one Uniform(rate)
// step of it.
func catalogPair(tb testing.TB, seed int64, bytes int, rate float64) (*dom.Node, *dom.Node) {
	tb.Helper()
	oldDoc := changesim.CatalogOfSize(rand.New(rand.NewSource(seed)), bytes)
	sim, err := changesim.Simulate(oldDoc, changesim.Uniform(rate, seed))
	if err != nil {
		tb.Fatal(err)
	}
	return oldDoc, sim.New
}

// catalogChain builds a catalog of about bytes bytes and steps
// successive versions of it (Uniform(rate) each), diffing every step.
// base and final carry the XIDs the chain assigned, which is what
// Compose and ComposeVersions match on.
func catalogChain(tb testing.TB, seed int64, bytes, steps int, rate float64) (base, final *dom.Node, chain []*delta.Delta) {
	tb.Helper()
	base = changesim.CatalogOfSize(rand.New(rand.NewSource(seed)), bytes)
	cur := base
	for step := 0; step < steps; step++ {
		sim, err := changesim.Simulate(cur, changesim.Uniform(rate, seed+int64(step)))
		if err != nil {
			tb.Fatal(err)
		}
		d, err := diff.Diff(cur, sim.New, diff.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		chain = append(chain, d)
		cur = sim.New
	}
	return base, cur, chain
}

// repeatedParagraphs is the repeated-content probe: n identical
// <p><b>x</b>same text</p> siblings, and a new version that adds one
// <p><b>y</b>marker</p> in the middle. Every paragraph, bold and text
// of the old version shares one signature bucket with its n-1 twins.
func repeatedParagraphs(n int) (oldDoc, newDoc *dom.Node) {
	oldDoc = dom.NewDocument()
	root := dom.NewElement("r")
	oldDoc.Append(root)
	for i := 0; i < n; i++ {
		root.Append(paragraph("x", "same text"))
	}
	newDoc = oldDoc.Clone()
	if err := newDoc.Children[0].InsertAt(n/2, paragraph("y", "marker")); err != nil {
		panic(err)
	}
	return oldDoc, newDoc
}

// paragraph is <p><b>bold</b>text</p>.
func paragraph(bold, text string) *dom.Node {
	b := dom.NewElement("b")
	b.Append(dom.NewText(bold))
	p := dom.NewElement("p")
	p.Append(b, dom.NewText(text))
	return p
}

// idCatalogPair is a catalog whose Products carry a DTD-declared ID
// attribute, stepped once with Uniform(rate). Every excludeEvery-th
// Product of the new version then gets an ID value the old version
// does not have, so Phase 1 excludes it and its old counterpart and
// Phase 3 finds excluded nodes in its buckets.
func idCatalogPair(tb testing.TB, seed int64, bytes int, rate float64, excludeEvery int) (*dom.Node, *dom.Node) {
	tb.Helper()
	oldDoc := changesim.CatalogOfSize(rand.New(rand.NewSource(seed)), bytes)
	oldDoc.Value = "DOCTYPE Catalog [<!ATTLIST Product pid ID #REQUIRED>]"
	pid := 0
	for _, n := range dom.Preorder(oldDoc) {
		if n.Type == dom.Element && n.Name == "Product" {
			pid++
			n.SetAttribute("pid", "p"+strconv.Itoa(pid))
		}
	}
	sim, err := changesim.Simulate(oldDoc, changesim.Uniform(rate, seed+99))
	if err != nil {
		tb.Fatal(err)
	}
	k := 0
	for _, n := range dom.Preorder(sim.New) {
		if n.Type != dom.Element || n.Name != "Product" {
			continue
		}
		if k++; k%excludeEvery == 0 {
			n.SetAttribute("pid", "gone"+strconv.Itoa(k))
		}
	}
	return oldDoc, sim.New
}

// htmlPagePair is an id-less HTMLPage and one SimulateHTML step of it.
func htmlPagePair(tb testing.TB, seed int64, sections int, rate float64) (*dom.Node, *dom.Node) {
	tb.Helper()
	oldDoc := changesim.HTMLPage(rand.New(rand.NewSource(seed)), sections)
	sim, err := changesim.SimulateHTML(oldDoc, changesim.UniformHTML(rate, seed))
	if err != nil {
		tb.Fatal(err)
	}
	return oldDoc, sim.New
}

// pinnedDeltas holds the SHA-256 of each case's delta XML, recorded at
// the last commit that still had the intra-document parallel diff, on its
// sequential path; the paragraphs, htmlpage and idcatalog cases were
// recorded while the signature index was still three maps. A digest
// that moves means the matching or the delta construction chose
// differently; that is never a refactoring.
var pinnedDeltas = map[string]string{
	"seed1-4000B-buld":      "e989125f5145edf87cd454bff49060663ad861dd5d12fdb7aafc189465c59327",
	"seed1-4000B-sftm":      "3d9fc2f30920bf1974f3df08cc162b8db89d58c7cdacd00810c7f4534f24448a",
	"seed2-60000B-buld":     "96e65977331cf804bc63ab0edb67226d0129b4843828f1541f67bea20c12889c",
	"seed2-60000B-sftm":     "e785870c314838b66123413d4900ea52833bad8557f931d67589b1c1e92c5b70",
	"seed3-120000B-buld":    "2a006290c99b733c365bccca0df842fef35ff4f13572094872dbd570c1c2186a",
	"seed4-200000B-buld":    "b6dd9ac825a21d11314938d63bedb491386b919fed2fcf05cad35250d0574630",
	"seed5-250000B-buld":    "51651e1f71974bf81aea456253ba41bcac9cb3c2465affa56021fd5b11898eb6",
	"compose-forward":       "8cfab9c556b3f6d1e8642f850ae39d9f274b34faeefb777fade2d3bf681a77b3",
	"compose-inverted":      "44fa10258ac1db50d11eb3d9c15255691719ad21e5bf577227db18f43f5c9d5f",
	"paragraphs-500-buld":   "46f78ed66564e52bab8a6c73a59837825e7ad73a513e3afcca34c2c84ab3f26e",
	"htmlpage-40-buld":      "07be9cba629721ee4431fb31f4f597f011aa02261edaff1383cdf85bd69d6dd0",
	"idcatalog-20000B-buld": "d9589effdd736456d9752422d4bbd56d723724054154ac39aeaee087ee99701f",
}

// TestCorpusDeltasPinned diffs a seeded changesim corpus with both
// matchers (SFTM on the smaller cases, to keep the suite quick) and
// composes one three-step chain forward and inverted, and requires the
// delta XML of each to hash to its pinned digest.
func TestCorpusDeltasPinned(t *testing.T) {
	check := func(t *testing.T, name string, d *delta.Delta) {
		t.Helper()
		text, err := d.MarshalText()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		sum := sha256.Sum256(text)
		if got := hex.EncodeToString(sum[:]); got != pinnedDeltas[name] {
			t.Errorf("%s: delta digest %s, pinned %s (%d bytes)", name, got, pinnedDeltas[name], len(text))
		}
	}
	for _, tc := range []struct {
		seed  int64
		bytes int
		rate  float64
		sftm  bool
	}{
		{1, 4_000, 0.10, true},
		{2, 60_000, 0.10, true},
		{3, 120_000, 0.05, false},
		{4, 200_000, 0.30, false},
		{5, 250_000, 0.20, false},
	} {
		matchers := []diff.Matcher{diff.MatcherBULD}
		if tc.sftm {
			matchers = append(matchers, diff.MatcherSFTM)
		}
		for _, matcher := range matchers {
			name := fmt.Sprintf("seed%d-%dB-%s", tc.seed, tc.bytes, matcher)
			t.Run(name, func(t *testing.T) {
				oldDoc, newDoc := corpusPair(t, tc.seed, tc.bytes, tc.rate)
				d, err := diff.Diff(oldDoc, newDoc, diff.Options{Matcher: matcher})
				if err != nil {
					t.Fatal(err)
				}
				check(t, name, d)
			})
		}
	}
	// Shapes whose signature buckets hold many equal entries.
	for name, pair := range map[string]func() (*dom.Node, *dom.Node){
		"paragraphs-500-buld":   func() (*dom.Node, *dom.Node) { return repeatedParagraphs(500) },
		"htmlpage-40-buld":      func() (*dom.Node, *dom.Node) { return htmlPagePair(t, 7, 40, 0.12) },
		"idcatalog-20000B-buld": func() (*dom.Node, *dom.Node) { return idCatalogPair(t, 11, 20_000, 0.10, 5) },
	} {
		t.Run(name, func(t *testing.T) {
			oldDoc, newDoc := pair()
			d, err := diff.Diff(oldDoc, newDoc, diff.Options{})
			if err != nil {
				t.Fatal(err)
			}
			check(t, name, d)
		})
	}
	t.Run("compose", func(t *testing.T) {
		base, _, chain := catalogChain(t, 7, 7000, 3, 0.10)
		d, err := diff.Compose(base, chain...)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "compose-forward", d)
		inv, err := d.Invert()
		if err != nil {
			t.Fatal(err)
		}
		check(t, "compose-inverted", inv)
	})
}

// TestConcurrentDiffsSharePools runs many parallel Diff calls through
// the shared tree/matcher/lcs pools (this is the server's steady
// state). Under -race — the repo's race gate runs the whole package —
// it doubles as the data-race check on the pools; functionally it
// asserts every goroutine still gets the deterministic delta for its
// input.
func TestConcurrentDiffsSharePools(t *testing.T) {
	type job struct {
		oldDoc, newDoc *dom.Node
		want           string
	}
	jobs := make([]job, 4)
	for i := range jobs {
		oldDoc, newDoc := corpusPair(t, int64(i), 30_000+10_000*i, 0.10)
		d, err := diff.Diff(oldDoc.Clone(), newDoc.Clone(), diff.Options{})
		if err != nil {
			t.Fatal(err)
		}
		text, err := d.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{oldDoc, newDoc, string(text)}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for round := 0; round < 4; round++ {
		for i := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				d, err := diff.Diff(j.oldDoc.Clone(), j.newDoc.Clone(), diff.Options{})
				if err != nil {
					errs <- err
					return
				}
				text, err := d.MarshalText()
				if err != nil {
					errs <- err
					return
				}
				if string(text) != j.want {
					errs <- errors.New("concurrent diff produced a different delta")
				}
			}(jobs[i])
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
