package delta

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"xydiff/internal/xid"
)

// Delta is a set of elementary operations describing the changes
// between two consecutive versions of an XML document. Operation order
// inside the set carries no meaning; Apply sequences the work itself
// (updates, then detachments, then attachments).
type Delta struct {
	Ops []Op
	// NextXID is the first XID not used by either version; a store
	// uses it to seed the allocator for the next diff. Zero means
	// unknown.
	NextXID int64
}

// Empty reports whether the delta carries no operations (the two
// versions are identical).
func (d *Delta) Empty() bool { return d == nil || len(d.Ops) == 0 }

// Counts tallies the operations by kind.
type Counts struct {
	Inserts, Deletes, Updates, Moves, AttrOps int
}

// Total returns the total number of operations.
func (c Counts) Total() int {
	return c.Inserts + c.Deletes + c.Updates + c.Moves + c.AttrOps
}

// String summarizes the tally, e.g. "3 ins, 1 del, 2 upd, 1 mov, 0 attr".
func (c Counts) String() string {
	return fmt.Sprintf("%d ins, %d del, %d upd, %d mov, %d attr",
		c.Inserts, c.Deletes, c.Updates, c.Moves, c.AttrOps)
}

// Count tallies the delta's operations by kind.
func (d *Delta) Count() Counts {
	var c Counts
	for _, op := range d.Ops {
		switch op.Kind {
		case KindInsert:
			c.Inserts++
		case KindDelete:
			c.Deletes++
		case KindUpdate:
			c.Updates++
		case KindMove:
			c.Moves++
		default:
			c.AttrOps++
		}
	}
	return c
}

// Invert turns d into the delta that transforms the new version back
// into the old one, and returns it: completed deltas carry enough
// information (deleted content, old values) for this to be purely
// syntactic, so it is done in place, and the caller must own d. A kind
// the package does not know (a corrupt in-memory delta) is an error,
// not a panic — deltas flow in from untrusted storage and the network,
// and the daemon must never die on one — and d is left as it was. A canonical delta starts with
// its deletes, then its inserts; inverted, they are inserts and then
// deletes, and swapping the two runs back leaves the delta in canonical
// order with nothing to sort and nothing allocated.
func (d *Delta) Invert() (*Delta, error) {
	for i := range d.Ops {
		if k := d.Ops[i].Kind; !knownKind(k) {
			return nil, fmt.Errorf("delta: invert: unknown op kind %d", uint8(k))
		}
	}
	for i := range d.Ops {
		d.Ops[i].invert()
	}
	ins := 0
	for ins < len(d.Ops) && d.Ops[ins].Kind == KindInsert {
		ins++
	}
	del := ins
	for del < len(d.Ops) && d.Ops[del].Kind == KindDelete {
		del++
	}
	if ins > 0 && del > ins {
		// Rotate: each run keeps its order, as the sort would.
		slices.Reverse(d.Ops[:ins])
		slices.Reverse(d.Ops[ins:del])
		slices.Reverse(d.Ops[:del])
	}
	d.sort()
	return d, nil
}

// sort puts operations in the canonical order used for serialization:
// by kind (deletes, inserts, moves, updates, attributes) and then by
// target XID, ties in their present order. Apply's semantics do not
// depend on this order; it only makes deltas stable and diffable. Ops
// already in order cost one look each; otherwise the sort orders their
// indexes, not the ops, and then moves each op once, along the
// permutation's cycles.
func (d *Delta) sort() {
	ops := d.Ops
	order := func(i, j int) int {
		return cmp.Or(cmp.Compare(sortRank(ops[i].Kind), sortRank(ops[j].Kind)), cmp.Compare(ops[i].XID, ops[j].XID))
	}
	sorted := true
	for i := 1; i < len(ops) && sorted; i++ {
		sorted = order(i-1, i) <= 0
	}
	if sorted {
		return
	}
	perm := make([]int32, len(ops))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, b int32) int { return order(int(a), int(b)) })
	// perm[k] is the op that goes to k. Follow each cycle once,
	// marking its entries done.
	for k := range perm {
		if perm[k] < 0 {
			continue
		}
		first := ops[k]
		for j := k; ; {
			from := int(perm[j])
			perm[j] = -1
			if from == k {
				ops[j] = first
				break
			}
			ops[j] = ops[from]
			j = from
		}
	}
}

// sortRank places a kind in the canonical order.
func sortRank(k Kind) int8 {
	switch k {
	case KindDelete:
		return 0
	case KindInsert:
		return 1
	case KindMove:
		return 2
	case KindUpdate:
		return 3
	default:
		return 4
	}
}

// Normalize sorts the operations canonically and returns the delta.
func (d *Delta) Normalize() *Delta {
	d.sort()
	return d
}

// String renders a short human-readable description, one op per line.
func (d *Delta) String() string {
	var b strings.Builder
	for _, o := range d.Ops {
		switch o.Kind {
		case KindInsert:
			fmt.Fprintf(&b, "insert %s under %d at %d: %s\n", xid.AppendOf(nil, o.Subtree), o.Parent, o.Pos, clip(o.Subtree.String()))
		case KindDelete:
			fmt.Fprintf(&b, "delete %s under %d at %d\n", xid.AppendOf(nil, o.Subtree), o.Parent, o.Pos)
		case KindUpdate:
			fmt.Fprintf(&b, "update %d: %q -> %q\n", o.XID, clip(o.Old), clip(o.New))
		case KindMove:
			fmt.Fprintf(&b, "move %d: %d[%d] -> %d[%d]\n", o.XID, o.Parent, o.Pos, o.ToParent, o.ToPos)
		case KindInsertAttr:
			fmt.Fprintf(&b, "insert-attr %d %s=%q\n", o.XID, o.Name, o.New)
		case KindDeleteAttr:
			fmt.Fprintf(&b, "delete-attr %d %s (was %q)\n", o.XID, o.Name, o.Old)
		case KindUpdateAttr:
			fmt.Fprintf(&b, "update-attr %d %s: %q -> %q\n", o.XID, o.Name, o.Old, o.New)
		}
	}
	return b.String()
}

func clip(s string) string {
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}
