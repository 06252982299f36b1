// Package sftm implements SFTM — Similarity-based Flexible Tree
// Matching (Brisset & Pawlak, PAPERS.md) — an ID-free matcher for
// real-web documents. Where BULD (package diff) identifies subtrees by
// exact signatures and DTD-declared ID attributes, SFTM scores node
// pairs by the tokens they share (labels, attributes, text shingles),
// weighted by inverse document frequency, and settles the matching
// greedily with a structural penalty. Crawled HTML has no XIDs, no DTD
// and rarely stable id attributes; token similarity still recognizes a
// product card whose price changed or a heading wrapped in a fresh div.
//
// The pipeline follows the paper:
//
//  1. tokenize every node (tag, attribute names and values, class
//     tokens, text word uni/bigrams);
//  2. build an inverted index over the old document's tokens and prune
//     over-frequent tokens (they carry no signal and would make
//     scoring quadratic);
//  3. for each new node, accumulate IDF-weighted overlap scores over
//     the index and keep the top-k label-compatible candidates;
//  4. propagate similarity through the structure: a candidate pair is
//     boosted when the nodes' parents and children look alike too;
//  5. match greedily, best score first, applying a penalty when a
//     pair's parents are already matched to different nodes (lazy
//     re-scoring keeps the greedy order correct); a final top-down
//     pass adopts unique unmatched children of matched pairs.
//
// All five stages run on flat integer data: nodes are pre-order
// indexes, tokens dense ids interned from the old document, postings
// one CSR block, candidates one arena of topK slots per new node. The
// result is index arrays too (Result), which package diff maps onto its
// own numbering for delta construction. The package is part of the
// wasm-clean diff core: it imports nothing but the standard library
// and internal/dom (enforced by the depbound analyzer).
//
// Everything is deterministic: no map iteration order reaches the
// result, so the same inputs produce the same matching — and therefore
// the same delta — on every run.
package sftm

import (
	"errors"
	"fmt"
	"math"

	"xydiff/internal/dom"
)

// The matcher's parameters, the values the matcher sweep was calibrated
// with; internal/bench's TestQualityPinned pins what they produce.
const (
	// topK bounds the candidates kept per new node. A power of two, so
	// a candidate's arena index splits into node and rank by a shift.
	topKShift = 4
	topK      = 1 << topKShift

	// maxPostings is the document frequency over the old document above
	// which a token is a stop token: shared by too many nodes to
	// discriminate, and the paper's guard against quadratic scoring.
	maxPostings = 64

	// minScore is the acceptance floor: candidate pairs whose final
	// (penalty-adjusted) score falls below it stay unmatched and
	// surface as delete+insert in the delta.
	minScore = 0.30

	// minBase is the content-evidence floor for the greedy pass: pairs
	// whose raw token similarity (before propagation) falls below it
	// are never matched greedily, no matter how much structural support
	// they have — a fully rewritten node should be adopted by sibling
	// position under its matched parent, not claimed by a look-alike
	// across the page.
	minBase = 0.30

	// propagation scales the structural bonus a candidate pair earns
	// from similar parents, children and adjacent siblings.
	propagation = 0.5

	// penalty is the multiplicative score reduction applied to a pair
	// whose parents are already matched to different nodes.
	penalty = 0.60

	// maxNodes keeps every candidate arena index inside an int32.
	maxNodes = math.MaxInt32 >> topKShift
)

// ErrCanceled is returned by Match when its done channel closes before
// the matching is complete.
var ErrCanceled = errors.New("sftm: canceled")

// Result is one matching, in index form.
type Result struct {
	// Old and New list each document's nodes in pre-order; index 0 is
	// the document itself.
	Old, New []*dom.Node

	// OldToNew[i] is the index in New of the node matched to Old[i], or
	// -1. The documents always correspond: OldToNew[0] is 0.
	OldToNew []int32

	// Candidates is the total candidate pairs scored.
	Candidates int
	// StopTokens is how many distinct tokens the frequency cutoff
	// pruned from the index.
	StopTokens int
}

// Match computes an old→new node matching between two documents. Both
// arguments must be Document nodes. A non-nil done aborts the run once
// it closes (polled between stages and every thousand or so nodes
// inside them); Match then returns ErrCanceled.
func Match(oldDoc, newDoc *dom.Node, done <-chan struct{}) (*Result, error) {
	if oldDoc == nil || newDoc == nil {
		return nil, fmt.Errorf("sftm: nil document")
	}
	if oldDoc.Type != dom.Document || newDoc.Type != dom.Document {
		return nil, fmt.Errorf("sftm: arguments must be Document nodes (got %v, %v)", oldDoc.Type, newDoc.Type)
	}
	m := newMatcher(oldDoc, newDoc, done)
	if m.old.len() > maxNodes || m.new.len() > maxNodes {
		return nil, fmt.Errorf("sftm: document too large (%d and %d nodes, limit %d)", m.old.len(), m.new.len(), maxNodes)
	}

	for _, stage := range [...]func(){
		m.tokenize,
		m.buildIndex,
		m.selectCandidates,
		m.propagate,
		m.matchGreedy,
		m.adoptUniqueChildren,
	} {
		// A stage that sees done closed returns early and leaves its
		// output incomplete; the poll here is what reports it.
		if canceled(done) {
			return nil, ErrCanceled
		}
		stage()
	}
	if canceled(done) {
		return nil, ErrCanceled
	}
	return &Result{
		Old:        m.old.nodes,
		New:        m.new.nodes,
		OldToNew:   m.oldToNew,
		Candidates: m.candidateCount,
		StopTokens: m.stopTokens,
	}, nil
}

// newMatcher flattens both documents into one matcher, their labels
// interned into one id space.
func newMatcher(oldDoc, newDoc *dom.Node, done <-chan struct{}) *matcher {
	labels := make(map[string]int32)
	m := &matcher{done: done}
	m.old = flatten(oldDoc, labels)
	m.new = flatten(newDoc, labels)
	m.kinds = otherKind + 1 + 2*len(labels)
	return m
}

// The in-stage cancellation polls come once per 1024 nodes and, in the
// greedy loop, once per 4096 pops.
const (
	pollMask    = 1<<10 - 1
	popPollMask = 1<<12 - 1
)

func canceled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Node kinds decide compatibility — whether an old/new pair could
// survive diff's structural filter: same type and, for elements and
// processing instructions, same label. Labels of both documents are
// interned into one id space, so two nodes are compatible exactly when
// their kinds are equal.
const (
	textKind    = 0
	commentKind = 1
	otherKind   = 2 // carries no tokens, so is never a candidate
	// Elements are 3+2·label, processing instructions 4+2·label.
)

func kindOf(n *dom.Node, labels map[string]int32) int32 {
	switch n.Type {
	case dom.Text:
		return textKind
	case dom.Comment:
		return commentKind
	case dom.Element, dom.ProcInst:
		id, ok := labels[n.Name]
		if !ok {
			id = int32(len(labels))
			labels[n.Name] = id
		}
		if n.Type == dom.Element {
			return otherKind + 1 + 2*id
		}
		return otherKind + 2 + 2*id
	}
	return otherKind
}

// flatTree is the pre-order array form of one document. In pre-order
// every descendant has a higher index than its ancestor, so an
// ascending scan sees parents before their children — the adoption
// pass relies on it.
type flatTree struct {
	nodes      []*dom.Node
	parent     []int32 // pre-order parent index, -1 for the document
	kind       []int32
	prev, next []int32 // adjacent siblings, -1 at the ends
	kidStart   []int32 // node i's children are kids[kidStart[i]:kidStart[i+1]]
	kids       []int32
}

func (t *flatTree) len() int { return len(t.nodes) }

func (t *flatTree) children(i int32) []int32 {
	return t.kids[t.kidStart[i]:t.kidStart[i+1]]
}

// flatten builds the pre-order arrays without recursion (crawled pages
// can nest deeply; an explicit stack keeps the goroutine stack flat).
// A node is numbered when it is popped, after everything before it in
// document order, so its children block starts where the blocks of all
// earlier nodes end and its earlier siblings are already in place.
func flatten(doc *dom.Node, labels map[string]int32) *flatTree {
	n := doc.Size()
	t := &flatTree{
		nodes:    make([]*dom.Node, n),
		parent:   make([]int32, n),
		kind:     make([]int32, n),
		prev:     make([]int32, n),
		next:     make([]int32, n),
		kidStart: make([]int32, n+1),
		kids:     make([]int32, n-1),
	}
	type frame struct {
		node   *dom.Node
		parent int32
		pos    int32 // position among the parent's children
	}
	stack := make([]frame, 1, 64)
	stack[0] = frame{doc, -1, 0}
	for idx := int32(0); len(stack) > 0; idx++ {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t.nodes[idx] = f.node
		t.parent[idx] = f.parent
		t.kind[idx] = kindOf(f.node, labels)
		t.prev[idx], t.next[idx] = -1, -1
		if f.parent >= 0 {
			slot := t.kidStart[f.parent] + f.pos
			t.kids[slot] = idx
			if f.pos > 0 {
				sib := t.kids[slot-1]
				t.prev[idx], t.next[sib] = sib, idx
			}
		}
		t.kidStart[idx+1] = t.kidStart[idx] + int32(len(f.node.Children))
		// Reverse push so children pop — and number — in document order.
		for i := len(f.node.Children) - 1; i >= 0; i-- {
			stack = append(stack, frame{f.node.Children[i], idx, int32(i)})
		}
	}
	return t
}

// logIDF is the token weight for a document-frequency df out of n old
// nodes: rarer tokens weigh more.
func logIDF(n, df int) float64 {
	if df < 1 {
		df = 1
	}
	return 1 + math.Log(float64(n)/float64(df))
}
