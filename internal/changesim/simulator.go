// Package changesim implements the paper's experimental apparatus: the
// change simulator of Section 6.1 (controlled random edits with a
// "perfect" reference delta) and generators for synthetic documents and
// web-like corpora that stand in for the 2002 web crawl of Section 6.2.
package changesim

import (
	"fmt"
	"math/rand"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

// Params are the per-node probabilities of the simulated operations,
// exactly as in the paper ("probabilities for each change operations",
// given per node). The experiment of Figure 4 sets all four to 0.10.
type Params struct {
	DeleteProb float64 // a node (and its subtree) is deleted
	UpdateProb float64 // a surviving text node gets new content
	InsertProb float64 // a surviving element receives a new child
	MoveProb   float64 // an insertion reuses deleted data (a move)
	Seed       int64
}

// Uniform returns Params with every probability set to p.
func Uniform(p float64, seed int64) Params {
	return Params{DeleteProb: p, UpdateProb: p, InsertProb: p, MoveProb: p, Seed: seed}
}

// Result is the simulator's output: the new version and the perfect
// delta that captures exactly the edits performed. The perfect delta is
// what the computed delta is compared against in Figure 5.
type Result struct {
	New     *dom.Node
	Perfect *delta.Delta
	// Stats tallies the edits actually performed.
	Stats Stats
}

// Stats counts the simulated operations.
type Stats struct {
	deletes, updates, inserts, moves int
}

func (s Stats) String() string {
	return fmt.Sprintf("%d del, %d upd, %d ins, %d mov", s.deletes, s.updates, s.inserts, s.moves)
}

// Simulate applies random changes to a copy of doc and returns the new
// version together with the perfect delta. doc itself is not modified
// structurally, but it receives post-order XIDs if it has none (the
// delta is expressed against them).
//
// The three phases follow the paper: deletions first, then updates of
// the remaining text nodes, then insertions — each insertion reusing a
// previously deleted subtree (a move) with probability MoveProb.
// Update and insert probabilities are recomputed against the shrunken
// node count, as the paper describes, so the expected edit counts stay
// calibrated to the original document size.
func Simulate(doc *dom.Node, p Params) (*Result, error) {
	if doc == nil || doc.Type != dom.Document {
		return nil, fmt.Errorf("changesim: need a Document node")
	}
	rng := rand.New(rand.NewSource(p.Seed))
	work := doc.Clone()

	// Identity map: original node -> its clone. Surviving entries
	// become the perfect matching.
	pairs := make(map[*dom.Node]*dom.Node, doc.Size())
	mapClones(doc, work, pairs)

	var stats Stats
	counter := 0

	// Phase 1: deletions. Iterate over a snapshot; skip nodes whose
	// ancestors are already gone.
	originalCount := 0
	var deletable []*dom.Node
	dom.WalkPre(work, func(n *dom.Node) bool {
		originalCount++
		if n.Type != dom.Document && n.Parent != nil && n.Parent.Type != dom.Document {
			deletable = append(deletable, n)
		}
		return true
	})
	var pool []*dom.Node // deleted subtrees, reusable as moves
	for _, n := range deletable {
		if n.Parent == nil || detachedFrom(n, work) {
			continue
		}
		if rng.Float64() >= p.DeleteProb {
			continue
		}
		if wouldMergeText(n) {
			continue // keep the tree well-formed for reparsing
		}
		n.Detach()
		pool = append(pool, n)
		stats.deletes++
	}

	// Phase 2: updates on the remaining text nodes, compensated for
	// the shrunken document.
	remaining := dom.Preorder(work)
	updateProb := compensate(p.UpdateProb, originalCount, len(remaining))
	for _, n := range remaining {
		if n.Type != dom.Text {
			continue
		}
		if rng.Float64() < updateProb {
			counter++
			n.Value = fmt.Sprintf("updated text %d", counter)
			stats.updates++
		}
	}

	// Phase 3: insertions and moves on the remaining element nodes.
	insertProb := compensate(p.InsertProb, originalCount, len(remaining))
	for _, n := range remaining {
		if n.Type != dom.Element {
			continue
		}
		if rng.Float64() >= insertProb {
			continue
		}
		pos := rng.Intn(len(n.Children) + 1)
		if len(pool) > 0 && rng.Float64() < p.MoveProb {
			// Move: re-insert previously deleted data.
			sub := pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			if textAdjacent(n, pos, sub.Type == dom.Text) {
				continue
			}
			if err := n.InsertAt(pos, sub); err != nil {
				return nil, fmt.Errorf("changesim: move: %w", err)
			}
			stats.moves++
			continue
		}
		// Original data, matching the XML style of the document: a
		// text node when allowed, otherwise an element whose tag is
		// copied from a sibling, cousin or ancestor.
		if rng.Intn(3) == 0 && !textAdjacent(n, pos, true) {
			counter++
			if err := n.InsertAt(pos, dom.NewText(fmt.Sprintf("original text %d", counter))); err != nil {
				return nil, fmt.Errorf("changesim: insert: %w", err)
			}
			stats.inserts++
			continue
		}
		label := copyLabel(rng, n)
		el := dom.NewElement(label)
		if rng.Intn(2) == 0 {
			counter++
			el.Append(dom.NewText(fmt.Sprintf("original text %d", counter)))
		}
		if err := n.InsertAt(pos, el); err != nil {
			return nil, fmt.Errorf("changesim: insert: %w", err)
		}
		stats.inserts++
	}

	// Never-reused deleted subtrees stay deleted: drop their pairs.
	alive := make(map[*dom.Node]bool, len(remaining))
	dom.WalkPre(work, func(n *dom.Node) bool {
		alive[n] = true
		return true
	})
	for o, n := range pairs {
		if !alive[n] {
			delete(pairs, o)
		}
	}

	perfect, err := diff.FromMatching(doc, work, pairs, diff.Options{
		DisableIDAttributes: true,
		LISWindow:           -1, // exact move minimization: the delta is "perfect"
	})
	if err != nil {
		return nil, fmt.Errorf("changesim: perfect delta: %w", err)
	}
	return &Result{New: work, Perfect: perfect, Stats: stats}, nil
}

// mapClones records the node-to-node correspondence of a Clone call.
func mapClones(orig, clone *dom.Node, pairs map[*dom.Node]*dom.Node) {
	pairs[orig] = clone
	for i := range orig.Children {
		mapClones(orig.Children[i], clone.Children[i], pairs)
	}
}

// detachedFrom reports whether n is no longer under root.
func detachedFrom(n, root *dom.Node) bool {
	for ; n != nil; n = n.Parent {
		if n == root {
			return false
		}
	}
	return true
}

// wouldMergeText reports whether removing n would leave two adjacent
// text siblings (which a reparse would merge, breaking equality).
func wouldMergeText(n *dom.Node) bool {
	p := n.Parent
	if p == nil {
		return false
	}
	i := n.Index()
	return i > 0 && i+1 < len(p.Children) &&
		p.Children[i-1].Type == dom.Text && p.Children[i+1].Type == dom.Text
}

// textAdjacent reports whether inserting a node at pos would place text
// next to text.
func textAdjacent(parent *dom.Node, pos int, isText bool) bool {
	if !isText {
		return false
	}
	if pos > 0 && parent.Children[pos-1].Type == dom.Text {
		return true
	}
	if pos < len(parent.Children) && parent.Children[pos].Type == dom.Text {
		return true
	}
	return false
}

// compensate rescales a per-node probability after the population
// shrank from n0 to n1 nodes.
func compensate(p float64, n0, n1 int) float64 {
	if n1 <= 0 {
		return 0
	}
	q := p * float64(n0) / float64(n1)
	if q > 1 {
		return 1
	}
	return q
}

// copyLabel picks a tag for inserted data from the document itself —
// sibling, cousin, or ancestor — preserving the label distribution that
// the paper identifies as an XML-specific trait.
func copyLabel(rng *rand.Rand, parent *dom.Node) string {
	var candidates []string
	for _, c := range parent.Children {
		if c.Type == dom.Element {
			candidates = append(candidates, c.Name)
		}
	}
	if len(candidates) == 0 && parent.Parent != nil {
		for _, sib := range parent.Parent.Children {
			if sib.Type != dom.Element {
				continue
			}
			for _, c := range sib.Children {
				if c.Type == dom.Element {
					candidates = append(candidates, c.Name)
				}
			}
		}
	}
	if len(candidates) == 0 {
		for a := parent; a != nil; a = a.Parent {
			if a.Type == dom.Element {
				candidates = append(candidates, a.Name)
			}
		}
	}
	if len(candidates) == 0 {
		return "node"
	}
	return candidates[rng.Intn(len(candidates))]
}
