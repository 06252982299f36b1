package changesim

import (
	"fmt"
	"math/rand"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

// This file is the real-web counterpart of the XML simulator: it
// generates id-less HTML pages and mutates them the way live sites
// actually change between crawls — attribute churn from re-rendered
// templates, wrapper divs from layout refactors, reordered id-less
// blocks, rewritten copy — while tracking the ground-truth node
// correspondences. TestQualityPinned (internal/bench) scores a
// matcher's precision and recall against exactly these pairs.

// htmlWords is the HTML corpus vocabulary. It is deliberately much
// richer than the XML generator's 23-word list: real page copy has low
// accidental word overlap between unrelated paragraphs, and a matcher
// evaluated against a tiny vocabulary would be punished for treating
// shared words as evidence — exactly the evidence that is reliable on
// real pages.
var htmlWords = []string{
	"account", "advice", "airport", "amount", "animal", "answer", "article",
	"autumn", "balance", "basket", "battery", "bicycle", "border", "bottle",
	"branch", "breakfast", "bridge", "budget", "builder", "button", "cabinet",
	"camera", "candle", "canvas", "carpet", "castle", "ceiling", "cellar",
	"channel", "chapter", "charity", "chimney", "cinema", "circle", "climate",
	"clinic", "college", "comfort", "compass", "concert", "copper", "corner",
	"cottage", "council", "courage", "cousin", "cricket", "crystal", "culture",
	"curtain", "customer", "danger", "daughter", "decade", "degree", "dentist",
	"desert", "dessert", "diamond", "dinner", "doctor", "dolphin", "drawer",
	"driver", "economy", "editor", "energy", "engine", "evening", "exhibit",
	"fabric", "factory", "farmer", "feather", "fiction", "finger", "flavor",
	"forest", "fortune", "fountain", "freedom", "furnace", "galaxy", "garden",
	"gallery", "glacier", "grammar", "granite", "guitar", "hammer", "harbor",
	"harvest", "height", "history", "holiday", "hunger", "island", "jacket",
	"journey", "jungle", "kettle", "kitchen", "ladder", "lantern", "laughter",
	"lawyer", "leather", "lecture", "legend", "lemon", "letter", "library",
	"lumber", "machine", "magnet", "manner", "marble", "market", "meadow",
	"member", "memory", "message", "mirror", "moment", "monarch", "morning",
	"mountain", "museum", "nation", "nature", "needle", "network", "number",
	"object", "ocean", "office", "orange", "orchard", "oxygen", "painter",
}

// htmlSentence builds filler copy from the HTML vocabulary.
func htmlSentence(rng *rand.Rand, n int) string {
	out := make([]byte, 0, n*9)
	for i := 0; i < n; i++ {
		if i > 0 {
			out = append(out, ' ')
		}
		out = append(out, htmlWords[rng.Intn(len(htmlWords))]...)
	}
	return string(out)
}

// HTMLPage generates a deterministic id-less HTML page: header with a
// nav of links, a main of sections (heading, paragraphs, list), and a
// footer. Deliberately no id attributes and heavily repeated tags, so
// a matcher gets no exact-identity shortcuts — the regime BULD's
// signature matching struggles with and SFTM is built for.
func HTMLPage(rng *rand.Rand, sections int) *dom.Node {
	doc := dom.NewDocument()
	html := dom.NewElement("html")
	doc.Append(html)

	head := dom.NewElement("head")
	title := dom.NewElement("title")
	title.Append(dom.NewText(htmlSentence(rng, 4)))
	head.Append(title)
	html.Append(head)

	body := dom.NewElement("body")
	html.Append(body)

	header := dom.NewElement("header")
	nav := dom.NewElement("nav")
	nav.SetAttribute("class", "nav main-nav")
	for i := 0; i < 4; i++ {
		a := dom.NewElement("a")
		a.SetAttribute("href", fmt.Sprintf("/%s-%d", htmlWords[rng.Intn(len(htmlWords))], i))
		a.SetAttribute("class", "nav-link")
		a.Append(dom.NewText(htmlSentence(rng, 2)))
		nav.Append(a)
	}
	header.Append(nav)
	body.Append(header)

	main := dom.NewElement("main")
	body.Append(main)
	for s := 0; s < sections; s++ {
		sec := dom.NewElement("div")
		sec.SetAttribute("class", "section")
		h2 := dom.NewElement("h2")
		h2.Append(dom.NewText(htmlSentence(rng, 3)))
		sec.Append(h2)
		for p := 0; p < 2+rng.Intn(2); p++ {
			para := dom.NewElement("p")
			para.Append(dom.NewText(htmlSentence(rng, 8+rng.Intn(8))))
			sec.Append(para)
		}
		ul := dom.NewElement("ul")
		ul.SetAttribute("class", "items")
		for li := 0; li < 3+rng.Intn(3); li++ {
			item := dom.NewElement("li")
			item.SetAttribute("class", "item")
			item.Append(dom.NewText(htmlSentence(rng, 3+rng.Intn(4))))
			ul.Append(item)
		}
		sec.Append(ul)
		main.Append(sec)
	}

	footer := dom.NewElement("footer")
	fp := dom.NewElement("p")
	fp.Append(dom.NewText(htmlSentence(rng, 6)))
	footer.Append(fp)
	body.Append(footer)
	return doc
}

// HTMLParams tune the HTML mutation mix. Probabilities are per
// eligible node.
type HTMLParams struct {
	// AttrProb churns an element's attributes: a class token appears
	// or disappears, an href gains a tracking parameter — the node
	// itself survives (ground truth keeps the pair).
	AttrProb float64
	// UpdateProb rewrites a text node's content completely (pair kept:
	// the perfect delta says update, not delete+insert).
	UpdateProb float64
	// WrapProb wraps an element in a fresh div — the layout-refactor
	// change that breaks ancestry-based matching. The wrapper is an
	// insert; the wrapped subtree keeps its pairs.
	WrapProb float64
	// ReorderProb moves a child to another position among its
	// siblings (id-less reorder; pairs kept, the delta says move).
	ReorderProb float64
	// DeleteProb deletes an element subtree (its pairs drop).
	DeleteProb float64
	// InsertProb inserts a fresh list item or paragraph (no pair).
	InsertProb float64
	Seed       int64
}

// UniformHTML returns HTMLParams with every probability set to p.
func UniformHTML(p float64, seed int64) HTMLParams {
	return HTMLParams{
		AttrProb: p, UpdateProb: p, WrapProb: p,
		ReorderProb: p, DeleteProb: p, InsertProb: p, Seed: seed,
	}
}

// HTMLResult is SimulateHTML's output: the mutated page, the
// ground-truth correspondences (old node → new node, documents
// excluded), and the perfect delta built from them.
type HTMLResult struct {
	New *dom.Node
	// Pairs is the surviving ground-truth matching. Keys are nodes of
	// the input document, values nodes of New.
	Pairs   map[*dom.Node]*dom.Node
	Perfect *delta.Delta
	Stats   HTMLStats
}

// HTMLStats counts the mutations performed.
type HTMLStats struct {
	AttrChurns, Updates, Wraps, Reorders, Deletes, Inserts int
}

func (s HTMLStats) String() string {
	return fmt.Sprintf("%d attr, %d upd, %d wrap, %d reord, %d del, %d ins",
		s.AttrChurns, s.Updates, s.Wraps, s.Reorders, s.Deletes, s.Inserts)
}

// SimulateHTML applies web-flavored mutations to a copy of doc and
// returns the new version, the ground-truth pairs, and the perfect
// delta. doc is not modified structurally, but receives post-order
// XIDs if it has none (the perfect delta is expressed against them).
func SimulateHTML(doc *dom.Node, p HTMLParams) (*HTMLResult, error) {
	if doc == nil || doc.Type != dom.Document {
		return nil, fmt.Errorf("changesim: need a Document node")
	}
	rng := rand.New(rand.NewSource(p.Seed))
	work := doc.Clone()
	pairs := make(map[*dom.Node]*dom.Node, doc.Size())
	mapClones(doc, work, pairs)

	var stats HTMLStats
	counter := 0

	// Phase 1: attribute churn on every surviving element.
	for _, n := range dom.Preorder(work) {
		if n.Type != dom.Element || rng.Float64() >= p.AttrProb {
			continue
		}
		if class, ok := n.Attribute("class"); ok {
			if rng.Intn(2) == 0 {
				n.SetAttribute("class", class+" v2")
			} else {
				n.RemoveAttribute("class")
			}
		} else if href, ok := n.Attribute("href"); ok {
			n.SetAttribute("href", href+"?utm=crawl")
		} else {
			n.SetAttribute("class", "fresh")
		}
		stats.AttrChurns++
	}

	// Phase 2: full text rewrites.
	for _, n := range dom.Preorder(work) {
		if n.Type != dom.Text || rng.Float64() >= p.UpdateProb {
			continue
		}
		counter++
		n.Value = fmt.Sprintf("rewritten copy %d %s", counter, htmlSentence(rng, 5))
		stats.Updates++
	}

	// Phase 3: wrapper divs. Snapshot first: wrapping mutates the
	// child lists being walked.
	var wrappable []*dom.Node
	for _, n := range dom.Preorder(work) {
		// Wrap block-level children of body/main/section-divs; leave
		// html/head/body themselves alone.
		if n.Type == dom.Element && n.Parent != nil && n.Parent.Type == dom.Element {
			switch n.Parent.Name {
			case "body", "main", "div":
				wrappable = append(wrappable, n)
			}
		}
	}
	for _, n := range wrappable {
		if rng.Float64() >= p.WrapProb {
			continue
		}
		parent := n.Parent
		if parent == nil {
			continue
		}
		pos := n.Index()
		wrap := dom.NewElement("div")
		wrap.SetAttribute("class", "wrapper")
		n.Detach()
		wrap.Append(n)
		if err := parent.InsertAt(pos, wrap); err != nil {
			return nil, fmt.Errorf("changesim: wrap: %w", err)
		}
		stats.Wraps++
	}

	// Phase 4: id-less reorders within a parent.
	for _, n := range dom.Preorder(work) {
		if n.Type != dom.Element || len(n.Children) < 2 || rng.Float64() >= p.ReorderProb {
			continue
		}
		from := rng.Intn(len(n.Children))
		to := rng.Intn(len(n.Children))
		if from == to {
			continue
		}
		child := n.Children[from]
		child.Detach()
		if err := n.InsertAt(to, child); err != nil {
			return nil, fmt.Errorf("changesim: reorder: %w", err)
		}
		stats.Reorders++
	}

	// Phase 5: deletions of repeated-content elements.
	for _, n := range dom.Preorder(work) {
		if n.Type != dom.Element || rng.Float64() >= p.DeleteProb {
			continue
		}
		if n.Name != "li" && n.Name != "p" && n.Name != "a" {
			continue
		}
		if n.Parent == nil || detachedFrom(n, work) {
			continue
		}
		n.Detach()
		stats.Deletes++
	}

	// Phase 6: fresh insertions.
	for _, n := range dom.Preorder(work) {
		if n.Type != dom.Element || rng.Float64() >= p.InsertProb {
			continue
		}
		var el *dom.Node
		switch n.Name {
		case "ul":
			el = dom.NewElement("li")
			el.SetAttribute("class", "item new")
		case "div", "main":
			el = dom.NewElement("p")
		default:
			continue
		}
		counter++
		el.Append(dom.NewText(fmt.Sprintf("fresh content %d %s", counter, htmlSentence(rng, 4))))
		if err := n.InsertAt(rng.Intn(len(n.Children)+1), el); err != nil {
			return nil, fmt.Errorf("changesim: insert: %w", err)
		}
		stats.Inserts++
	}

	// Drop pairs whose clone no longer lives under the mutated tree.
	alive := make(map[*dom.Node]bool, len(pairs))
	dom.WalkPre(work, func(n *dom.Node) bool {
		alive[n] = true
		return true
	})
	for o, n := range pairs {
		if !alive[n] {
			delete(pairs, o)
		}
	}
	// Documents out: ground truth covers real nodes only (FromMatching
	// and the matchers pair documents structurally anyway).
	truth := make(map[*dom.Node]*dom.Node, len(pairs))
	for o, n := range pairs {
		if o.Type != dom.Document {
			truth[o] = n
		}
	}

	perfect, err := diff.FromMatching(doc, work, pairs, diff.Options{
		DisableIDAttributes: true,
		LISWindow:           -1,
	})
	if err != nil {
		return nil, fmt.Errorf("changesim: perfect delta: %w", err)
	}
	return &HTMLResult{New: work, Pairs: truth, Perfect: perfect, Stats: stats}, nil
}
