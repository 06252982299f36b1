package delta

import "xydiff/internal/dom"

// Targets is a delta resolved against the two versions it connects:
// for each operation, the node it is about in the version before and
// in the version after. Everything that interprets a delta against its
// documents — the statistics collector, the alerter, the store's
// change queries — reads this one resolution instead of indexing the
// trees itself. It points into both trees and is valid only as long as
// they are.
type Targets struct {
	Delta          *Delta
	OldDoc, NewDoc *dom.Node
	// Old[i] and New[i] are the nodes carrying Delta.Ops[i].XID
	// in OldDoc and NewDoc, nil where that version has no such node (an
	// inserted node is absent from the old version, a deleted one from
	// the new).
	Old, New []*dom.Node
}

// Resolve looks up the target of every operation of d in oldDoc and
// newDoc (either may be nil). Each tree is walked once and only the
// XIDs the delta names are remembered, so the cost in memory is
// proportional to the delta, not to the documents.
func Resolve(d *Delta, oldDoc, newDoc *dom.Node) *Targets {
	t := &Targets{Delta: d, OldDoc: oldDoc, NewDoc: newDoc}
	if d.Empty() {
		return t
	}
	n := len(d.Ops)
	nodes := make([]*dom.Node, 2*n)
	t.Old, t.New = nodes[:n:n], nodes[n:]
	// slot maps a target XID to the first operation naming it. Nearly
	// every node of the trees is not a target, so a one-hash Bloom
	// filter (16 bits per operation) answers for most of them before
	// the map is asked.
	bits := 1024
	for bits < 16*n {
		bits *= 2
	}
	f := &targetFinder{slot: make(map[int64]int, n), filter: make([]uint64, bits/64), mask: uint64(bits - 1)}
	for i, op := range d.Ops {
		if x := op.XID; x != 0 {
			if _, dup := f.slot[x]; !dup {
				f.slot[x] = i
				f.filter[uint64(x)&f.mask>>6] |= 1 << (uint64(x) & 63)
			}
		}
	}
	f.find(oldDoc, t.Old)
	f.find(newDoc, t.New)
	for i, op := range d.Ops {
		if j, ok := f.slot[op.XID]; ok && j != i {
			t.Old[i], t.New[i] = t.Old[j], t.New[j]
		}
	}
	return t
}

type targetFinder struct {
	slot   map[int64]int
	filter []uint64
	mask   uint64
}

// find records in out, in document order, the nodes under n whose XID
// is a key of slot.
func (f *targetFinder) find(n *dom.Node, out []*dom.Node) {
	if n == nil {
		return
	}
	if x := uint64(n.XID); f.filter[x&f.mask>>6]&(1<<(x&63)) != 0 {
		if i, ok := f.slot[n.XID]; ok {
			out[i] = n
		}
	}
	for _, c := range n.Children {
		f.find(c, out)
	}
}
