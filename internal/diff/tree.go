package diff

import (
	"math"

	"xydiff/internal/dom"
)

// tree annotates one document with the dense per-node arrays the BULD
// phases need: post-order numbering, parent/child indexes, subtree
// weights and signatures. Keeping these out of dom.Node keeps the hot
// loops cache-friendly and the DOM clean.
//
// Node identity is the post-order index. Child lookups go through the
// flattened kids/kidStart arrays, which cost one slice read instead of
// a map probe.
type tree struct {
	doc   *dom.Node
	nodes []*dom.Node // post-order

	parent   []int32   // post-order index of parent (-1 for document)
	childPos []int32   // position among parent's children
	kidStart []int32   // offset of node i's children block in kids
	kids     []int32   // flattened child indexes, one block per node
	weight   []float64 // paper's weights: text 1+log2(len), element 1+sum
	sig      []uint64  // subtree content signature

	totalWeight float64

	// maxXID is the largest XID in the document and missingXID whether
	// any node has none (XID 0): Phase 5's two facts about the old
	// side, recorded by the walk that builds the arrays.
	maxXID     int64
	missingXID bool
}

// newTree annotates doc in one post-order walk, hashing subtree
// signatures only when sigs is set: BULD's Phase 3 is their one reader.
// done, when non-nil, aborts the build early (the caller notices
// through Options.canceled and discards the partial tree).
func newTree(doc *dom.Node, sigs bool, done <-chan struct{}) *tree {
	t := treePool.Get().(*tree)
	t.doc = doc
	t.maxXID, t.missingXID = 0, false
	t.open(sigs)
	b := builder{t: t, sigs: sigs, done: done}
	_, n, kids := b.build(doc, 0, 0, 0)
	t.cut(int(n), int(kids), sigs)
	t.parent[n-1] = -1
	t.totalWeight = t.weight[t.root()]
	return t
}

// open stretches the pooled arrays to their capacity for a build, which
// writes every element it uses, so no zeroing is needed; cut then trims
// them to what the build used. A pooled tree that has held a document
// this large needs nothing more. Otherwise the build meets the end of
// an array and calls fit, which counts the document once and sizes the
// arrays to it. sig is emptied when signatures are not wanted.
func (t *tree) open(sigs bool) {
	t.nodes = t.nodes[:cap(t.nodes)]
	t.parent = t.parent[:cap(t.parent)]
	t.childPos = t.childPos[:cap(t.childPos)]
	t.kidStart = t.kidStart[:cap(t.kidStart)]
	t.weight = t.weight[:cap(t.weight)]
	t.kids = t.kids[:cap(t.kids)]
	if sigs {
		t.sig = t.sig[:cap(t.sig)]
	} else {
		t.sig = t.sig[:0]
	}
}

// cut trims the arrays to n nodes and kids child entries.
func (t *tree) cut(n, kids int, sigs bool) {
	t.nodes = t.nodes[:n]
	t.parent = t.parent[:n]
	t.childPos = t.childPos[:n]
	t.kidStart = t.kidStart[:n]
	t.weight = t.weight[:n]
	if sigs {
		t.sig = t.sig[:n]
	}
	t.kids = t.kids[:kids]
}

// fit sizes the arrays, keeping what the build has written, for the
// whole document: n nodes and n-1 child entries.
func (t *tree) fit(sigs bool) {
	n := t.doc.Size()
	if len(t.nodes) < n {
		t.nodes = regrow(t.nodes, n)
		t.parent = regrow(t.parent, n)
		t.childPos = regrow(t.childPos, n)
		t.kidStart = regrow(t.kidStart, n)
		t.weight = regrow(t.weight, n)
	}
	if sigs && len(t.sig) < n {
		t.sig = regrow(t.sig, n)
	}
	if len(t.kids) < n-1 {
		t.kids = regrow(t.kids, n-1)
	}
}

// regrow returns a slice of length n that starts with s.
func regrow[T any](s []T, n int) []T {
	out := make([]T, n)
	copy(out, s)
	return out
}

func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (t *tree) len() int { return len(t.nodes) }

// root returns the post-order index of the document node (always last).
func (t *tree) root() int { return len(t.nodes) - 1 }

// child returns the post-order index of the pos-th child of node i.
func (t *tree) child(i, pos int) int {
	return int(t.kids[int(t.kidStart[i])+pos])
}

// ancestor returns the index of the level-th ancestor of i, or -1.
func (t *tree) ancestor(i, level int) int {
	for ; level > 0 && i >= 0; level-- {
		i = int(t.parent[i])
	}
	return i
}

// walkPre visits the subtree rooted at index i in document order. If v
// returns false for a node, its children are skipped.
func (t *tree) walkPre(i int, v func(i int) bool) {
	if !v(i) {
		return
	}
	base := int(t.kidStart[i])
	for j := range t.nodes[i].Children {
		t.walkPre(int(t.kids[base+j]), v)
	}
}

// builder fills the annotation arrays of one tree.
type builder struct {
	t     *tree
	sigs  bool       // hash subtree signatures
	attrs []dom.Attr // scratch for attribute sorting
	done  <-chan struct{}
	steps int
	stop  bool // done fired: unwind, the partial tree is discarded
}

// build fills the arrays for the subtree rooted at x, assigning
// post-order indexes from idx and kids-block offsets from off, and
// returns x's own index and the next free (idx, off). The parent entry
// of x itself is the caller's responsibility.
func (b *builder) build(x *dom.Node, idx, off, pos int32) (int32, int32, int32) {
	if b.stop {
		// Cancellation unwind: the returned indexes stay in bounds so
		// enclosing frames write only into allocated (discarded) space.
		return idx, idx, off
	}
	t := b.t
	r := off
	off += int32(len(x.Children))
	if int(off) > len(t.kids) {
		t.fit(b.sigs)
	}
	for j, c := range x.Children {
		var ci int32
		ci, idx, off = b.build(c, idx, off, int32(j))
		t.kids[r+int32(j)] = ci
	}
	self := idx
	if int(self) >= len(t.nodes) || b.sigs && int(self) >= len(t.sig) {
		t.fit(b.sigs)
	}
	idx++
	t.nodes[self] = x
	t.childPos[self] = pos
	t.kidStart[self] = r
	t.maxXID = max(t.maxXID, x.XID)
	t.missingXID = t.missingXID || x.XID == 0

	// Annotation: the Section 5.2 weights and, when wanted, a streaming
	// byte hash of the node's own content followed by the children's
	// signatures in order (so the signature represents the entire
	// subtree).
	h := dom.NewHash64()
	if b.sigs {
		b.attrs = h.HashNodeScratch(x, b.attrs)
	}
	switch x.Type {
	case dom.Element, dom.Document:
		w := 1.0
		for j := range x.Children {
			ci := t.kids[r+int32(j)]
			t.parent[ci] = self
			if b.sigs {
				h.MixUint64(t.sig[ci])
			}
			w += t.weight[ci]
		}
		t.weight[self] = w
	default: // Text, Comment, ProcInst
		t.weight[self] = 1 + math.Log2(float64(1+len(x.Value)))
	}
	if b.sigs {
		t.sig[self] = h.Sum()
	}

	if b.steps++; b.steps&0x03ff == 0 && b.canceled() {
		b.stop = true
	}
	return self, idx, off
}

func (b *builder) canceled() bool {
	if b.done == nil {
		return false
	}
	select {
	case <-b.done:
		return true
	default:
		return false
	}
}
