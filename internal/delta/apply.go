package delta

import (
	"cmp"
	"fmt"
	"slices"

	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// Apply transforms doc (in place) from the version the delta was
// computed against into the next version. doc must be the Document
// node, with XIDs assigned consistently with the delta.
//
// The engine is deterministic and order-independent with respect to
// d.Ops:
//
//  1. value and attribute operations are applied through an XID index;
//  2. moved subtrees are detached (they keep their identity);
//  3. deleted subtrees are detached and verified against the op's
//     recorded content;
//  4. inserted subtrees and moved subtrees are attached, grouped by
//     target parent and in ascending target position. Groups whose
//     parent does not exist yet (a move into a freshly inserted
//     subtree) wait for a later pass.
//
// On error the document may be partially modified; callers that need
// atomicity should apply to a clone (see ApplyClone).
//
// Apply never panics: deltas arrive from untrusted storage and the
// network, so beyond the explicit validation below any residual panic
// (e.g. an out-of-range tree mutation a corrupt delta slips past the
// checks) is converted into an error.
func Apply(doc *dom.Node, d *Delta) error {
	a := applier{doc: doc, clone: true}
	return a.apply(d, false)
}

// ApplyClone applies the delta to a deep copy of doc and returns it;
// doc itself is never modified, even on error.
func ApplyClone(doc *dom.Node, d *Delta) (*dom.Node, error) {
	clone := doc.Clone()
	if err := Apply(clone, d); err != nil {
		return nil, err
	}
	return clone, nil
}

// A Replay steps one document through a chain of deltas — forward, or
// backward through their inverses — the way a store rebuilds a version
// from stored deltas. Each step makes every check Apply makes, and
// costs less than Apply(doc, d) or Apply(doc, d.Invert()):
//
//   - one XID index serves every step: each step keeps it current as it
//     detaches and attaches, where Apply rebuilds it from the whole
//     document;
//   - the deltas are the Replay's to consume: a subtree a step attaches
//     is the op's own, not a clone of it, so a delta must not be used
//     again once stepped through (decode it afresh);
//   - a backward step reads each op inverted where it stands, with no
//     inverted delta built and none sorted — Apply does not depend on
//     the order of the ops.
//
// After an error the document may be partly changed and the Replay
// must be dropped.
type Replay struct {
	a applier
}

// NewReplay returns a Replay positioned at doc, the Document node of
// a version with its XIDs. doc is changed in place by every step.
func NewReplay(doc *dom.Node) *Replay {
	return &Replay{a: applier{doc: doc}}
}

// Forward applies d, taking doc to the version after it. d is consumed.
func (r *Replay) Forward(d *Delta) error { return r.a.apply(d, false) }

// Backward applies the inverse of d, taking doc to the version before
// it. d is consumed.
func (r *Replay) Backward(d *Delta) error { return r.a.apply(d, true) }

// applier is the engine behind Apply and Replay: a document, its XID
// index (built on first use), whether attached subtrees are cloned from
// the ops or taken from them, and the attachment list the steps reuse.
type applier struct {
	doc     *dom.Node
	index   *xid.Table[*dom.Node]
	clone   bool
	pending []attachment
}

// attachment is a subtree waiting to be attached at pos under the node
// with XID parent; ready, on the first of a group, marks the group for
// the current pass.
type attachment struct {
	parent int64
	pos    int
	node   *dom.Node
	ready  bool
}

// groupEnd returns the end of the group of attachments (one parent)
// that starts at i.
func groupEnd(pending []attachment, i int) int {
	j := i + 1
	for j < len(pending) && pending[j].parent == pending[i].parent {
		j++
	}
	return j
}

// apply applies d to a.doc, or its inverse when backward, in the five
// phases Apply documents.
func (a *applier) apply(d *Delta, backward bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("delta: apply: internal panic on corrupt delta: %v", r)
		}
	}()
	if d.Empty() {
		return nil
	}
	if a.index == nil {
		a.index = buildIndex(a.doc)
	}
	index := a.index

	// Phase 1: updates and attribute ops.
	for _, op := range d.Ops {
		if err := applyValueOp(index, op, backward); err != nil {
			return err
		}
	}

	// Phase 2: detach moved subtrees.
	pending := a.pending[:0]
	for _, op := range d.Ops {
		mv, ok := op.(Move)
		if !ok {
			continue
		}
		if backward {
			mv = Move{XID: mv.XID, FromParent: mv.ToParent, FromPos: mv.ToPos, ToParent: mv.FromParent, ToPos: mv.FromPos}
		}
		n := index.Get(mv.XID)
		if n == nil {
			return fmt.Errorf("delta: move: no node with XID %d", mv.XID)
		}
		if n.Parent == nil || n.Parent.XID != mv.FromParent {
			return fmt.Errorf("delta: move %d: parent is %v, op says %d", mv.XID, parentXID(n), mv.FromParent)
		}
		n.Detach()
		pending = append(pending, attachment{parent: mv.ToParent, pos: mv.ToPos, node: n})
	}

	// Phase 3: detach deleted subtrees.
	for _, op := range d.Ops {
		del, attach, ok := structural(op, backward)
		if !ok || attach {
			continue
		}
		n := index.Get(del.XID)
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
			index.Delete(x.XID)
			return true
		})
	}

	// Phase 4: prepare insertions.
	for _, op := range d.Ops {
		ins, attach, ok := structural(op, backward)
		if !ok || !attach {
			continue
		}
		if ins.Subtree == nil {
			return fmt.Errorf("delta: insert %d: missing subtree content", ins.XID)
		}
		sub := ins.Subtree
		if a.clone {
			sub = sub.Clone()
		}
		if ins.XIDMap.Len() > 0 {
			if err := ins.XIDMap.ApplyTo(sub); err != nil {
				return fmt.Errorf("delta: insert %d: %w", ins.XID, err)
			}
		}
		pending = append(pending, attachment{parent: ins.Parent, pos: ins.Pos, node: sub})
	}

	// Phase 5: attach, multi-pass until every group's parent exists. A
	// group is the attachments under one parent, attached in ascending
	// position (ties in op order); a pass attaches, in ascending parent
	// XID, each group whose parent existed when the pass began.
	slices.SortStableFunc(pending, func(x, y attachment) int {
		return cmp.Or(cmp.Compare(x.parent, y.parent), cmp.Compare(x.pos, y.pos))
	})
	a.pending = pending[:0] // the next step reuses the storage
	for len(pending) > 0 {
		groups, ready := 0, 0
		for i, j := 0, 0; i < len(pending); i = j {
			j = groupEnd(pending, i)
			pending[i].ready = index.Get(pending[i].parent) != nil
			groups++
			if pending[i].ready {
				ready++
			}
		}
		if ready == 0 {
			return fmt.Errorf("delta: %d attachment group(s) reference unknown parents", groups)
		}
		rest := pending[:0] // the groups left for the next pass, in order
		for i, j := 0, 0; i < len(pending); i = j {
			j = groupEnd(pending, i)
			if !pending[i].ready {
				rest = append(rest, pending[i:j]...)
				continue
			}
			p := pending[i].parent
			parent := index.Get(p)
			for _, at := range pending[i:j] {
				if err := parent.InsertAt(at.pos, at.node); err != nil {
					return fmt.Errorf("delta: attach at %d[%d]: %w", p, at.pos, err)
				}
				// Newly reachable nodes become attachment targets for
				// later passes (moves into inserted subtrees).
				dom.WalkPre(at.node, func(x *dom.Node) bool {
					if x.XID != 0 {
						index.Set(x.XID, x)
					}
					return true
				})
			}
		}
		pending = rest
	}
	return nil
}

// structural returns an insert or a delete as an Insert's fields and
// whether, in the direction applied, it attaches its subtree (an
// insert, or a delete undone) rather than detaching it.
func structural(op Op, backward bool) (s Insert, attach, ok bool) {
	switch o := op.(type) {
	case Insert:
		return o, !backward, true
	case Delete:
		return Insert(o), backward, true
	}
	return Insert{}, false, false
}

// applyValueOp applies an update or an attribute op, or its inverse
// when backward; other ops are left to the later phases.
func applyValueOp(index *xid.Table[*dom.Node], op Op, backward bool) error {
	switch o := op.(type) {
	case Update:
		if backward {
			o.Old, o.New = o.New, o.Old
		}
		n := index.Get(o.XID)
		if n == nil {
			return fmt.Errorf("delta: update: no node with XID %d", o.XID)
		}
		if n.Value != o.Old {
			return fmt.Errorf("delta: update %d: value %q, op says %q", o.XID, n.Value, o.Old)
		}
		n.Value = o.New
	case InsertAttr:
		if backward {
			return deleteAttr(index, o.XID, o.Name, o.Value)
		}
		return insertAttr(index, o.XID, o.Name, o.Value)
	case DeleteAttr:
		if backward {
			return insertAttr(index, o.XID, o.Name, o.Old)
		}
		return deleteAttr(index, o.XID, o.Name, o.Old)
	case UpdateAttr:
		if backward {
			o.Old, o.New = o.New, o.Old
		}
		n := index.Get(o.XID)
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

func insertAttr(index *xid.Table[*dom.Node], x int64, name, value string) error {
	n := index.Get(x)
	if n == nil {
		return fmt.Errorf("delta: insert-attribute: no node with XID %d", x)
	}
	if _, exists := n.Attribute(name); exists {
		return fmt.Errorf("delta: insert-attribute %d: %s already present", x, name)
	}
	n.SetAttribute(name, value)
	return nil
}

func deleteAttr(index *xid.Table[*dom.Node], x int64, name, old string) error {
	n := index.Get(x)
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

func buildIndex(doc *dom.Node) *xid.Table[*dom.Node] {
	index := new(xid.Table[*dom.Node])
	dom.WalkPre(doc, func(n *dom.Node) bool {
		if n.XID != 0 {
			index.Set(n.XID, n)
		}
		return true
	})
	return index
}

func parentXID(n *dom.Node) int64 {
	if n.Parent == nil {
		return 0
	}
	return n.Parent.XID
}

// Validate performs static sanity checks on a delta without a document:
// XID maps must agree with subtree sizes and roots, and positions must
// be non-negative. It catches corrupt serialized deltas early.
func Validate(d *Delta) error {
	for _, op := range d.Ops {
		switch o := op.(type) {
		case Insert:
			if err := validateSubtreeOp(o.XID, o.XIDMap, o.Pos, o.Subtree); err != nil {
				return fmt.Errorf("delta: insert: %w", err)
			}
		case Delete:
			if err := validateSubtreeOp(o.XID, o.XIDMap, o.Pos, o.Subtree); err != nil {
				return fmt.Errorf("delta: delete: %w", err)
			}
		case Move:
			if o.FromPos < 0 || o.ToPos < 0 {
				return fmt.Errorf("delta: move %d: negative position", o.XID)
			}
		}
	}
	return nil
}

func validateSubtreeOp(x int64, m xid.Map, pos int, sub *dom.Node) error {
	if pos < 0 {
		return fmt.Errorf("xid %d: negative position", x)
	}
	if sub == nil {
		return fmt.Errorf("xid %d: missing subtree", x)
	}
	if m.Len() != sub.Size() {
		return fmt.Errorf("xid %d: xid-map has %d entries for %d nodes", x, m.Len(), sub.Size())
	}
	if m.Root() != x {
		return fmt.Errorf("xid %d: xid-map root is %d", x, m.Root())
	}
	return nil
}
