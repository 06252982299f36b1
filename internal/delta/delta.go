package delta

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
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
		switch op.Kind() {
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

// Invert returns the delta that transforms the new version back into
// the old one: completed deltas carry enough information (deleted
// content, old values) for this to be purely syntactic. It errors on
// an operation type the package does not know instead of panicking.
func (d *Delta) Invert() (*Delta, error) {
	inv := &Delta{Ops: make([]Op, len(d.Ops)), NextXID: d.NextXID}
	for i, op := range d.Ops {
		io, err := invert(op)
		if err != nil {
			return nil, err
		}
		inv.Ops[i] = io
	}
	inv.sort()
	return inv, nil
}

// sort puts operations in the canonical order used for serialization:
// by kind (deletes, inserts, moves, updates, attributes) and then by
// target XID. Apply's semantics do not depend on this order; it only
// makes deltas stable and diffable.
func (d *Delta) sort() {
	slices.SortStableFunc(d.Ops, func(a, b Op) int {
		if c := cmp.Compare(sortRank(a.Kind()), sortRank(b.Kind())); c != 0 {
			return c
		}
		return cmp.Compare(a.TargetXID(), b.TargetXID())
	})
}

// sortRank places a kind in the canonical order.
func sortRank(k Kind) int {
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
	for _, op := range d.Ops {
		switch o := op.(type) {
		case Insert:
			fmt.Fprintf(&b, "insert %s under %d at %d: %s\n", o.XIDMap, o.Parent, o.Pos, clip(o.Subtree.String()))
		case Delete:
			fmt.Fprintf(&b, "delete %s under %d at %d\n", o.XIDMap, o.Parent, o.Pos)
		case Update:
			fmt.Fprintf(&b, "update %d: %q -> %q\n", o.XID, clip(o.Old), clip(o.New))
		case Move:
			fmt.Fprintf(&b, "move %d: %d[%d] -> %d[%d]\n", o.XID, o.FromParent, o.FromPos, o.ToParent, o.ToPos)
		case InsertAttr:
			fmt.Fprintf(&b, "insert-attr %d %s=%q\n", o.XID, o.Name, o.Value)
		case DeleteAttr:
			fmt.Fprintf(&b, "delete-attr %d %s (was %q)\n", o.XID, o.Name, o.Old)
		case UpdateAttr:
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
