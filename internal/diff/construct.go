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

	d := &delta.Delta{}

	// Updates and attribute changes on matched pairs.
	for oi, ni := range m.oldToNew {
		if ni < 0 {
			continue
		}
		o, n := m.old.nodes[oi], m.new.nodes[ni]
		switch o.Type {
		case dom.Text, dom.Comment, dom.ProcInst:
			if o.Value != n.Value {
				d.Ops = append(d.Ops, delta.Update{XID: o.XID, Old: o.Value, New: n.Value})
			}
		case dom.Element:
			m.diffAttributes(d, o, n)
		}
	}

	// Deletes: maximal unmatched old subtrees.
	m.old.walkPre(m.old.root(), func(oi int) bool {
		if m.oldToNew[oi] >= 0 {
			return true // matched: descend
		}
		if po := int(m.old.parent[oi]); po >= 0 && m.oldToNew[po] >= 0 {
			o := m.old.nodes[oi]
			content := m.pruneOld(oi)
			d.Ops = append(d.Ops, delta.Delete{
				XID:     o.XID,
				XIDMap:  xid.Of(content),
				Parent:  m.old.nodes[po].XID,
				Pos:     int(m.old.childPos[oi]),
				Subtree: content,
			})
		}
		return true // descend: matched descendants still need move ops
	})

	// Inserts: maximal unmatched new subtrees.
	m.new.walkPre(m.new.root(), func(ni int) bool {
		if m.newToOld[ni] >= 0 {
			return true
		}
		if pn := int(m.new.parent[ni]); pn >= 0 && m.newToOld[pn] >= 0 {
			n := m.new.nodes[ni]
			content := m.pruneNew(ni)
			d.Ops = append(d.Ops, delta.Insert{
				XID:     n.XID,
				XIDMap:  xid.Of(content),
				Parent:  m.new.nodes[pn].XID,
				Pos:     int(m.new.childPos[ni]),
				Subtree: content,
			})
		}
		return true
	})

	// Inter-parent moves.
	for oi, ni := range m.oldToNew {
		if ni < 0 || oi == m.old.root() {
			continue
		}
		po, pn := int(m.old.parent[oi]), int(m.new.parent[ni])
		if po < 0 || pn < 0 {
			continue
		}
		if m.newToOld[pn] != po {
			d.Ops = append(d.Ops, delta.Move{
				XID:        m.old.nodes[oi].XID,
				FromParent: m.old.nodes[po].XID,
				FromPos:    int(m.old.childPos[oi]),
				ToParent:   m.new.nodes[pn].XID,
				ToPos:      int(m.new.childPos[ni]),
			})
		}
	}

	// Intra-parent moves: for every matched pair of parents, children
	// that stayed may be out of order. A maximum-weight increasing
	// subsequence gives the cheapest set of nodes to move (moving a
	// node costs its weight); beyond the window the paper's block
	// heuristic applies.
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
		stay := lcs.WindowedIncreasing(items, window)
		inStay := growSlice(m.liStay, len(kept))
		clear(inStay)
		for _, s := range stay {
			inStay[s] = true
		}
		m.liStay = inStay
		for k, ci := range kept {
			if inStay[k] {
				continue
			}
			cn := m.oldToNew[ci]
			d.Ops = append(d.Ops, delta.Move{
				XID:        m.old.nodes[ci].XID,
				FromParent: o.XID,
				FromPos:    int(m.old.childPos[ci]),
				ToParent:   n.XID,
				ToPos:      int(m.new.childPos[cn]),
			})
		}
	}

	d.NextXID = alloc.Peek()
	if maxXID+1 > d.NextXID {
		d.NextXID = maxXID + 1
	}
	return d.Normalize()
}

// diffAttributes emits attribute operations for a matched element pair,
// in attribute-name order: the order of a node's attribute slice
// depends on how the tree was built (an upload keeps its order, a
// replayed insert-attribute appends), and the delta must not.
func (m *matcher) diffAttributes(d *delta.Delta, o, n *dom.Node) {
	if len(o.Attrs) == 0 && len(n.Attrs) == 0 {
		return
	}
	for _, a := range o.SortedAttrs() {
		nv, ok := n.Attribute(a.Name)
		switch {
		case !ok:
			d.Ops = append(d.Ops, delta.DeleteAttr{XID: o.XID, Name: a.Name, Old: a.Value})
		case nv != a.Value:
			d.Ops = append(d.Ops, delta.UpdateAttr{XID: o.XID, Name: a.Name, Old: a.Value, New: nv})
		}
	}
	for _, a := range n.SortedAttrs() {
		if _, ok := o.Attribute(a.Name); !ok {
			d.Ops = append(d.Ops, delta.InsertAttr{XID: o.XID, Name: a.Name, Value: a.Value})
		}
	}
}

// pruneOld clones an unmatched old subtree, dropping matched
// descendants (they leave via move operations), so the delete op's
// recorded content is exactly what remains at detach time.
func (m *matcher) pruneOld(oi int) *dom.Node {
	o := m.old.nodes[oi]
	c := &dom.Node{Type: o.Type, Name: o.Name, Value: o.Value, XID: o.XID}
	if len(o.Attrs) > 0 {
		c.Attrs = make([]dom.Attr, len(o.Attrs))
		copy(c.Attrs, o.Attrs)
	}
	for pos := range o.Children {
		ci := m.old.child(oi, pos)
		if m.oldToNew[ci] >= 0 {
			continue
		}
		c.Append(m.pruneOld(ci))
	}
	return c
}

// pruneNew clones an unmatched new subtree, dropping matched
// descendants (they arrive via move operations).
func (m *matcher) pruneNew(ni int) *dom.Node {
	n := m.new.nodes[ni]
	c := &dom.Node{Type: n.Type, Name: n.Name, Value: n.Value, XID: n.XID}
	if len(n.Attrs) > 0 {
		c.Attrs = make([]dom.Attr, len(n.Attrs))
		copy(c.Attrs, n.Attrs)
	}
	for pos := range n.Children {
		ci := m.new.child(ni, pos)
		if m.newToOld[ci] >= 0 {
			continue
		}
		c.Append(m.pruneNew(ci))
	}
	return c
}
