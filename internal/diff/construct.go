package diff

import (
	"xydiff/internal/delta"
	"xydiff/internal/dom"
	"xydiff/internal/lcs"
	"xydiff/internal/xid"
)

// buildDelta is Phase 5: given the final matching, derive a completed
// delta. XIDs are assigned here: the old document keeps (or receives)
// its post-order XIDs, matched new nodes inherit them, and unmatched
// new nodes draw fresh identifiers from the allocator in post-order.
// Whether the old document has XIDs, and its largest, were recorded
// when its tree was built, so neither costs a walk here.
func (m *matcher) buildDelta() *delta.Delta {
	var alloc *xid.Allocator
	if m.old.missingXID {
		alloc = xid.Assign(m.old.doc)
	} else {
		alloc = xid.NewAllocator(m.old.maxXID + 1)
	}

	// Transfer / allocate identifiers for the new version.
	var maxXID int64
	for ni, n := range m.new.nodes { // post-order
		switch oi := m.newToOld[ni]; {
		case oi >= 0:
			n.XID = m.old.nodes[oi].XID
		case m.opts.keepNewXIDs && n.XID != 0:
			// Compose: the chain already named this node.
		default:
			n.XID = alloc.Next()
		}
		if n.XID > maxXID {
			maxXID = n.XID
		}
	}

	// The ops are one slab of exactly their number: the moves within a
	// parent, which take a subsequence search, are found first and the
	// other ops counted. Each kind's ops are then written in the order
	// of the canonical one (delta.Delta.Normalize) — deletes, inserts,
	// moves, updates, attribute ops — each kind's mostly by XID already,
	// so that the sort has little to move.
	m.findReorders()
	ops := make([]delta.Op, 0, m.countOps()+len(m.liMoves))
	var slabs dom.Slabs
	if !m.opts.takeSubtrees {
		slabs = m.pruneSlabs()
	}

	// Deletes and inserts: the maximal unmatched subtrees, each rooted
	// at an unmatched node under a matched parent. Matched descendants
	// are pruned: they leave or arrive by moves. From here on only the
	// arrays, the matched nodes and XIDs are read, so taking the
	// unmatched subtrees apart (takeSubtrees) changes nothing the ops
	// below are built from.
	for oi, ni := range m.oldToNew {
		if po := int(m.old.parent[oi]); ni < 0 && po >= 0 && m.oldToNew[po] >= 0 {
			ops = append(ops, delta.Op{
				Kind:    delta.KindDelete,
				XID:     m.old.nodes[oi].XID,
				Parent:  m.old.nodes[po].XID,
				Pos:     m.old.childPos[oi],
				Subtree: m.content(&slabs, m.old, m.oldToNew, oi),
			})
		}
	}
	for ni, oi := range m.newToOld {
		if pn := int(m.new.parent[ni]); oi < 0 && pn >= 0 && m.newToOld[pn] >= 0 {
			ops = append(ops, delta.Op{
				Kind:    delta.KindInsert,
				XID:     m.new.nodes[ni].XID,
				Parent:  m.new.nodes[pn].XID,
				Pos:     m.new.childPos[ni],
				Subtree: m.content(&slabs, m.new, m.newToOld, ni),
			})
		}
	}

	// Moves: children whose parent's match is not their match's parent,
	// and the children findReorders found out of order under a matched
	// pair of parents.
	for oi := range m.oldToNew {
		if m.movesParent(oi) {
			ops = append(ops, m.move(oi))
		}
	}
	for _, ci := range m.liMoves {
		ops = append(ops, m.move(ci))
	}

	// Updates, then attribute changes, on matched pairs.
	for oi, ni := range m.oldToNew {
		if ni < 0 {
			continue
		}
		if o, n := m.old.nodes[oi], m.new.nodes[ni]; hasValue(o.Type) && o.Value != n.Value {
			ops = append(ops, delta.Op{Kind: delta.KindUpdate, XID: o.XID, Old: o.Value, New: n.Value})
		}
	}
	for oi, ni := range m.oldToNew {
		if o := m.old.nodes[oi]; ni >= 0 && o.Type == dom.Element {
			ops = diffAttributes(ops, o, m.new.nodes[ni])
		}
	}
	d := &delta.Delta{Ops: ops, NextXID: max(alloc.Peek(), maxXID+1)}
	return d.Normalize()
}

// hasValue reports whether a node of type t has a value an update
// changes.
func hasValue(t dom.NodeType) bool {
	return t == dom.Text || t == dom.Comment || t == dom.ProcInst
}

// movesParent reports whether old node oi is matched to a node whose
// parent is not the match of its own parent.
func (m *matcher) movesParent(oi int) bool {
	ni, po := m.oldToNew[oi], int(m.old.parent[oi])
	if ni < 0 || po < 0 {
		return false
	}
	pn := int(m.new.parent[ni])
	return pn >= 0 && m.newToOld[pn] != po
}

// move is the move of old node oi, matched, from its place in the old
// document to its match's place in the new one.
func (m *matcher) move(oi int) delta.Op {
	ni := m.oldToNew[oi]
	return delta.Op{
		Kind:     delta.KindMove,
		XID:      m.old.nodes[oi].XID,
		Parent:   m.old.nodes[m.old.parent[oi]].XID,
		Pos:      m.old.childPos[oi],
		ToParent: m.new.nodes[m.new.parent[ni]].XID,
		ToPos:    m.new.childPos[ni],
	}
}

// findReorders fills liMoves with the old children that move within
// their parent: for every matched pair of parents, children that stayed
// may be out of order. A maximum-weight increasing subsequence gives
// the cheapest set of nodes to move (moving a node costs its weight);
// beyond the window the paper's block heuristic applies.
func (m *matcher) findReorders() {
	m.liMoves = m.liMoves[:0]
	window := m.opts.lisWindow()
	for oi, ni := range m.oldToNew {
		if ni < 0 {
			continue
		}
		o, n := m.old.nodes[oi], m.new.nodes[ni]
		if len(o.Children) < 2 || len(n.Children) == 0 {
			continue
		}
		items := m.liItems[:0]
		kept := m.liKept[:0] // old child index per item
		for pos := range o.Children {
			ci := m.old.child(oi, pos)
			cn := m.oldToNew[ci]
			if cn < 0 || int(m.new.parent[cn]) != ni {
				continue
			}
			items = append(items, lcs.Item{Key: int(m.new.childPos[cn]), Weight: m.old.weight[ci]})
			kept = append(kept, ci)
		}
		m.liItems, m.liKept = items, kept
		if len(items) < 2 {
			continue
		}
		m.liSel = lcs.WindowedIncreasing(m.liSel[:0], items, window)
		inStay := growSlice(m.liStay, len(kept))
		clear(inStay)
		for _, s := range m.liSel {
			inStay[s] = true
		}
		m.liStay = inStay
		for k, ci := range kept {
			if !inStay[k] {
				m.liMoves = append(m.liMoves, ci)
			}
		}
	}
}

// countOps counts the ops buildDelta writes but the moves within a
// parent: deletes, inserts, moves to another parent, updates and
// attribute ops.
func (m *matcher) countOps() int {
	n := 0
	for oi, ni := range m.oldToNew {
		if ni < 0 {
			if po := int(m.old.parent[oi]); po >= 0 && m.oldToNew[po] >= 0 {
				n++
			}
			continue
		}
		if m.movesParent(oi) {
			n++
		}
		switch o, nn := m.old.nodes[oi], m.new.nodes[ni]; {
		case hasValue(o.Type):
			if o.Value != nn.Value {
				n++
			}
		case o.Type == dom.Element:
			n += attrOpCount(o, nn)
		}
	}
	for ni, oi := range m.newToOld {
		if pn := int(m.new.parent[ni]); oi < 0 && pn >= 0 && m.newToOld[pn] >= 0 {
			n++
		}
	}
	return n
}

// attrOpCount is how many ops diffAttributes writes for a matched
// element pair.
func attrOpCount(o, n *dom.Node) int {
	count := 0
	for _, a := range o.Attrs {
		if v, ok := n.Attribute(a.Name); !ok || v != a.Value {
			count++
		}
	}
	for _, a := range n.Attrs {
		if _, ok := o.Attribute(a.Name); !ok {
			count++
		}
	}
	return count
}

// diffAttributes appends the attribute operations of a matched element
// pair to ops, in attribute-name order: the order of a node's attribute
// slice depends on how the tree was built (an upload keeps its order, a
// replayed insert-attribute appends), and the delta must not.
func diffAttributes(ops []delta.Op, o, n *dom.Node) []delta.Op {
	if len(o.Attrs) == 0 && len(n.Attrs) == 0 {
		return ops
	}
	for _, a := range o.SortedAttrs() {
		nv, ok := n.Attribute(a.Name)
		switch {
		case !ok:
			ops = append(ops, delta.Op{Kind: delta.KindDeleteAttr, XID: o.XID, Name: a.Name, Old: a.Value})
		case nv != a.Value:
			ops = append(ops, delta.Op{Kind: delta.KindUpdateAttr, XID: o.XID, Name: a.Name, Old: a.Value, New: nv})
		}
	}
	for _, a := range n.SortedAttrs() {
		if _, ok := o.Attribute(a.Name); !ok {
			ops = append(ops, delta.Op{Kind: delta.KindInsertAttr, XID: o.XID, Name: a.Name, New: a.Value})
		}
	}
	return ops
}

// pruneSlabs returns slabs for every insert's and delete's content.
// Every unmatched node but none other is in exactly one of them — the
// document node is always matched — so one pass over the two matchings
// counts the nodes, their attributes, and the child pointers: one per
// unmatched node under an unmatched parent.
func (m *matcher) pruneSlabs() dom.Slabs {
	var nodes, kids, attrs int
	for _, side := range [2]struct {
		t     *tree
		match []int
	}{{m.old, m.oldToNew}, {m.new, m.newToOld}} {
		for i, j := range side.match {
			if j >= 0 {
				continue
			}
			nodes++
			attrs += len(side.t.nodes[i].Attrs)
			if p := side.t.parent[i]; p >= 0 && side.match[p] < 0 {
				kids++
			}
		}
	}
	return dom.NewSlabs(nodes, kids, attrs)
}

// content is an insert's or delete's recorded content, the unmatched
// subtree of t rooted at i: a copy cut from slabs, or, under
// takeSubtrees, the subtree itself, taken out of its document.
func (m *matcher) content(s *dom.Slabs, t *tree, match []int, i int) *dom.Node {
	if !m.opts.takeSubtrees {
		return prune(s, t, match, i)
	}
	n := take(t, match, i)
	n.Parent = nil // nothing of the document it came from stays reachable
	return n
}

// take is prune in place: it unlinks the matched children of every node
// of the unmatched subtree of t rooted at i and returns its root. Each
// children slice keeps its array, cut to exact capacity, with nothing
// left reachable past its end; a node left with no children has none.
func take(t *tree, match []int, i int) *dom.Node {
	n := t.nodes[i]
	base := int(t.kidStart[i])
	kept := 0
	for _, ci := range t.kids[base : base+len(n.Children)] {
		if match[ci] < 0 {
			n.Children[kept] = take(t, match, int(ci))
			kept++
		}
	}
	clear(n.Children[kept:])
	if kept == 0 {
		n.Children = nil
	} else {
		n.Children = n.Children[:kept:kept]
	}
	return n
}

// prune copies the unmatched subtree of t rooted at i, dropping matched
// descendants (they leave or arrive by move operations), so an op's
// recorded content is exactly what is detached or attached. match is
// t's side of the matching.
func prune(s *dom.Slabs, t *tree, match []int, i int) *dom.Node {
	n := t.nodes[i]
	base := int(t.kidStart[i])
	kept := 0
	for _, ci := range t.kids[base : base+len(n.Children)] {
		if match[ci] < 0 {
			kept++
		}
	}
	c := s.Copy(n, kept)
	kept = 0
	for _, ci := range t.kids[base : base+len(n.Children)] {
		if match[ci] >= 0 {
			continue
		}
		cc := prune(s, t, match, int(ci))
		cc.Parent = c
		c.Children[kept] = cc
		kept++
	}
	return c
}
