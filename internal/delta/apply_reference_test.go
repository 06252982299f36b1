package delta

import (
	"cmp"
	"fmt"
	"slices"

	"xydiff/internal/dom"
)

// The applier Apply and Replay ran on before the XID table, with its
// index a map and its attachments grouped in a map per step: verbatim
// but for its names, the one op struct, and the rule that an inserted
// subtree's nodes each carry an XID of their own, indexed before
// anything is attached. FuzzApply and TestApplyErrors hold the two
// engines to the same verdicts, the same error texts and the same
// trees.

// ApplyReference is Apply on the map-indexed engine.
func ApplyReference(doc *dom.Node, d *Delta) error {
	a := refApplier{doc: doc, clone: true}
	return a.apply(d, false)
}

// ReplayReference steps doc through ds the way a Replay does —
// backward through their inverses when backward — on the map-indexed
// engine, stopping at the first error. The deltas are consumed.
func ReplayReference(doc *dom.Node, ds []*Delta, backward bool) error {
	a := refApplier{doc: doc}
	for _, d := range ds {
		if err := a.apply(d, backward); err != nil {
			return err
		}
	}
	return nil
}

// refApplier is the engine behind Apply and Replay: a document, its XID
// index (built on first use), and whether attached subtrees are cloned
// from the ops or taken from them.
type refApplier struct {
	doc   *dom.Node
	index map[int64]*dom.Node
	clone bool
}

// apply applies d to a.doc, or its inverse when backward, in the five
// phases Apply documents.
func (a *refApplier) apply(d *Delta, backward bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("delta: apply: internal panic on corrupt delta: %v", r)
		}
	}()
	if d.Empty() {
		return nil
	}
	if a.index == nil {
		a.index = refBuildIndex(a.doc)
	}
	index := a.index

	// Phase 1: updates and attribute ops.
	for _, op := range d.Ops {
		if err := refApplyValueOp(index, refAs(op, backward)); err != nil {
			return err
		}
	}

	// Phase 2: detach moved subtrees.
	type attachment struct {
		pos  int
		node *dom.Node
	}
	pending := make(map[int64][]attachment) // target parent XID -> items
	for _, op := range d.Ops {
		mv := refAs(op, backward)
		if mv.Kind != KindMove {
			continue
		}
		n := index[mv.XID]
		if n == nil {
			return fmt.Errorf("delta: move: no node with XID %d", mv.XID)
		}
		if n.Parent == nil || n.Parent.XID != mv.Parent {
			return fmt.Errorf("delta: move %d: parent is %v, op says %d", mv.XID, parentXID(n), mv.Parent)
		}
		n.Detach()
		pending[mv.ToParent] = append(pending[mv.ToParent], attachment{pos: int(mv.ToPos), node: n})
	}

	// Phase 3: detach deleted subtrees.
	for _, op := range d.Ops {
		del := refAs(op, backward)
		if del.Kind != KindDelete {
			continue
		}
		n := index[del.XID]
		if n == nil {
			return fmt.Errorf("delta: delete: no node with XID %d", del.XID)
		}
		if n.Parent == nil || n.Parent.XID != del.Parent {
			return fmt.Errorf("delta: delete %d: parent is %v, op says %d", del.XID, parentXID(n), del.Parent)
		}
		if del.Subtree != nil && !dom.Equal(n, del.Subtree) {
			return fmt.Errorf("delta: delete %d: document content differs from recorded subtree: %s",
				del.XID, dom.Diagnose(n, del.Subtree))
		}
		n.Detach()
		// The detached nodes are gone; drop them from the index so a
		// corrupt delta cannot re-attach below a deleted node.
		dom.WalkPre(n, func(x *dom.Node) bool {
			delete(index, x.XID)
			return true
		})
	}

	// Phase 4: prepare insertions.
	for _, op := range d.Ops {
		ins := refAs(op, backward)
		if ins.Kind != KindInsert {
			continue
		}
		if ins.Subtree == nil {
			return fmt.Errorf("delta: insert %d: missing subtree content", ins.XID)
		}
		sub := ins.Subtree
		if a.clone {
			sub = sub.Clone()
		}
		var err error
		dom.WalkPre(sub, func(x *dom.Node) bool {
			switch {
			case x.XID == 0:
				err = fmt.Errorf("delta: insert %d: a %s node without an XID", ins.XID, x.Type)
			case index[x.XID] != nil:
				err = fmt.Errorf("delta: insert %d: XID %d repeated", ins.XID, x.XID)
			default:
				index[x.XID] = x
				return true
			}
			return false
		})
		if err != nil {
			return err
		}
		pending[ins.Parent] = append(pending[ins.Parent], attachment{pos: int(ins.Pos), node: sub})
	}

	// Phase 5: attach, multi-pass until every group's parent exists.
	for len(pending) > 0 {
		parents := make([]int64, 0, len(pending))
		for p := range pending {
			if _, ok := index[p]; ok {
				parents = append(parents, p)
			}
		}
		if len(parents) == 0 {
			return fmt.Errorf("delta: %d attachment group(s) reference unknown parents", len(pending))
		}
		slices.Sort(parents)
		for _, p := range parents {
			parent := index[p]
			group := pending[p]
			delete(pending, p)
			slices.SortStableFunc(group, func(x, y attachment) int { return cmp.Compare(x.pos, y.pos) })
			for _, at := range group {
				if err := parent.InsertAt(at.pos, at.node); err != nil {
					return fmt.Errorf("delta: attach at %d[%d]: %w", p, at.pos, err)
				}
				// Newly reachable nodes become attachment targets for
				// later passes (moves into inserted subtrees).
				dom.WalkPre(at.node, func(x *dom.Node) bool {
					if x.XID != 0 {
						index[x.XID] = x
					}
					return true
				})
			}
		}
	}
	return nil
}

// refAs returns the op as applied: op itself, or its inverse when
// backward.
func refAs(op Op, backward bool) Op {
	if !backward {
		return op
	}
	if knownKind(op.Kind) {
		op.invert()
	}
	return op
}

// refApplyValueOp applies an update or an attribute op; other ops are
// left to the later phases.
func refApplyValueOp(index map[int64]*dom.Node, o Op) error {
	switch o.Kind {
	case KindUpdate:
		n := index[o.XID]
		if n == nil {
			return fmt.Errorf("delta: update: no node with XID %d", o.XID)
		}
		if n.Value != o.Old {
			return fmt.Errorf("delta: update %d: value %q, op says %q", o.XID, n.Value, o.Old)
		}
		n.Value = o.New
	case KindInsertAttr:
		return refInsertAttr(index, o.XID, o.Name, o.New)
	case KindDeleteAttr:
		return refDeleteAttr(index, o.XID, o.Name, o.Old)
	case KindUpdateAttr:
		n := index[o.XID]
		if n == nil {
			return fmt.Errorf("delta: update-attribute: no node with XID %d", o.XID)
		}
		if v, exists := n.Attribute(o.Name); !exists {
			return fmt.Errorf("delta: update-attribute %d: %s absent", o.XID, o.Name)
		} else if v != o.Old {
			return fmt.Errorf("delta: update-attribute %d: %s=%q, op says %q", o.XID, o.Name, v, o.Old)
		}
		n.SetAttribute(o.Name, o.New)
	}
	return nil
}

func refInsertAttr(index map[int64]*dom.Node, x int64, name, value string) error {
	n := index[x]
	if n == nil {
		return fmt.Errorf("delta: insert-attribute: no node with XID %d", x)
	}
	if _, exists := n.Attribute(name); exists {
		return fmt.Errorf("delta: insert-attribute %d: %s already present", x, name)
	}
	n.SetAttribute(name, value)
	return nil
}

func refDeleteAttr(index map[int64]*dom.Node, x int64, name, old string) error {
	n := index[x]
	if n == nil {
		return fmt.Errorf("delta: delete-attribute: no node with XID %d", x)
	}
	if v, exists := n.Attribute(name); !exists {
		return fmt.Errorf("delta: delete-attribute %d: %s absent", x, name)
	} else if v != old {
		return fmt.Errorf("delta: delete-attribute %d: %s=%q, op says %q", x, name, v, old)
	}
	n.RemoveAttribute(name)
	return nil
}

func refBuildIndex(doc *dom.Node) map[int64]*dom.Node {
	index := make(map[int64]*dom.Node, 256)
	dom.WalkPre(doc, func(n *dom.Node) bool {
		if n.XID != 0 {
			index[n.XID] = n
		}
		return true
	})
	return index
}
